//! The reactor's thin OS shim: epoll readiness polling and non-blocking
//! TCP connect, hand-rolled over `extern "C"` declarations against the
//! libc `std` already links, and the byte views of `f64` runs that let a
//! socket read into and write from a model vector.
//!
//! This is the *only* module in the crate allowed to use `unsafe` (the
//! crate root is `deny(unsafe_code)`; everything else stays safe). The
//! surface is deliberately tiny and fully wrapped: [`Poller`] owns the
//! epoll instance, [`Events`] owns the readiness buffer,
//! [`connect_nonblocking`] / [`take_socket_error`] cover the two socket
//! operations `std` has no portable API for, and [`f64_bytes`] /
//! [`f64_bytes_mut`] are two casts. On non-Linux targets every epoll and
//! socket entry point returns [`io::ErrorKind::Unsupported`] so the crate
//! still compiles (the reactor is a Linux deployment vehicle; CI and the
//! benches run on Linux).

#![allow(unsafe_code)]

// The wire carries an `f64` as its little-endian bit pattern, which is
// its memory only on a little-endian target.
#[cfg(target_endian = "big")]
compile_error!(
    "the p2pfl wire is little-endian: the reactor reads and writes f64 runs as their memory"
);

/// The bytes of `v` as the wire carries them: each element's
/// little-endian bit pattern, in order.
pub(crate) fn f64_bytes(v: &[f64]) -> &[u8] {
    // SAFETY: `v` is `size_of_val(v)` initialized bytes, readable for the
    // borrow's lifetime, and `u8` has alignment 1. On a little-endian
    // target (checked above) those bytes are `to_le_bytes` of each
    // element.
    unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<u8>(), std::mem::size_of_val(v)) }
}

/// The bytes of `v`, writable: whatever is written through them reads
/// back as the `f64`s with those little-endian bit patterns.
pub(crate) fn f64_bytes_mut(v: &mut [f64]) -> &mut [u8] {
    // SAFETY: as in `f64_bytes`, and the borrow is exclusive for its
    // lifetime; every bit pattern written through it is a valid `f64`.
    unsafe { std::slice::from_raw_parts_mut(v.as_mut_ptr().cast::<u8>(), std::mem::size_of_val(v)) }
}

/// Readiness of one registered file descriptor, decoded from the raw
/// epoll event mask.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Readiness {
    /// The token supplied at registration.
    pub(crate) token: u64,
    /// Readable (or a peer hangup, which reads as EOF).
    pub(crate) readable: bool,
    /// Writable.
    pub(crate) writable: bool,
    /// Error or hangup: the fd should be drained and closed.
    pub(crate) error: bool,
}

/// What a registration wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Wake on readable.
    pub(crate) readable: bool,
    /// Wake on writable.
    pub(crate) writable: bool,
}

impl Interest {
    pub(crate) const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    pub(crate) const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    pub(crate) const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

#[cfg(target_os = "linux")]
pub(crate) use imp::{connect_nonblocking, listen_with_backlog, take_socket_error, Events, Poller};

#[cfg(target_os = "linux")]
mod imp {
    use super::{Interest, Readiness};
    use std::io;
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::time::Duration;

    // x86_64 is the one Linux ABI where epoll_event is packed; other
    // architectures use natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLL_CLOEXEC: i32 = 0x80000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x1;
    const EPOLLOUT: u32 = 0x4;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;
    const EPOLLRDHUP: u32 = 0x2000;

    const AF_INET: i32 = 2;
    const AF_INET6: i32 = 10;
    const SOCK_STREAM: i32 = 1;
    const SOCK_NONBLOCK: i32 = 0x800;
    const SOCK_CLOEXEC: i32 = 0x80000;
    const SOL_SOCKET: i32 = 1;
    const SO_ERROR: i32 = 4;
    const EINPROGRESS: i32 = 115;

    #[repr(C)]
    struct SockAddrIn {
        sin_family: u16,
        sin_port: u16,
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    #[repr(C)]
    struct SockAddrIn6 {
        sin6_family: u16,
        sin6_port: u16,
        sin6_flowinfo: u32,
        sin6_addr: [u8; 16],
        sin6_scope_id: u32,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn connect(fd: i32, addr: *const u8, len: u32) -> i32;
        fn bind(fd: i32, addr: *const u8, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn getsockopt(fd: i32, level: i32, name: i32, value: *mut u8, len: *mut u32) -> i32;
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    fn interest_mask(interest: Interest) -> u32 {
        let mut mask = EPOLLRDHUP;
        if interest.readable {
            mask |= EPOLLIN;
        }
        if interest.writable {
            mask |= EPOLLOUT;
        }
        mask
    }

    /// Buffer of readiness events filled by [`Poller::wait`].
    pub(crate) struct Events {
        buf: Vec<EpollEvent>,
        len: usize,
    }

    impl Events {
        pub(crate) fn with_capacity(cap: usize) -> Events {
            Events {
                buf: vec![EpollEvent { events: 0, data: 0 }; cap.max(1)],
                len: 0,
            }
        }

        pub(crate) fn iter(&self) -> impl Iterator<Item = Readiness> + '_ {
            self.buf.iter().take(self.len).map(|e| {
                // Copy out of the (potentially packed) struct before use.
                let events = e.events;
                let data = e.data;
                Readiness {
                    token: data,
                    readable: events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: events & EPOLLOUT != 0,
                    error: events & (EPOLLERR | EPOLLHUP) != 0,
                }
            })
        }
    }

    /// An owned epoll instance.
    pub(crate) struct Poller {
        epfd: OwnedFd,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Poller> {
            // SAFETY: epoll_create1 takes no pointers; a valid fd (or -1)
            // comes back and is immediately wrapped in OwnedFd.
            let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Poller {
                epfd: unsafe { OwnedFd::from_raw_fd(fd) },
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: interest_mask(interest),
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            cvt(unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) })?;
            Ok(())
        }

        /// Registers `fd` with level-triggered `interest`.
        pub(crate) fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        /// Changes the interest set of an already-registered fd.
        pub(crate) fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        /// Deregisters `fd`. Harmless if the fd was never registered.
        pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: pre-2.6.9 kernels require a non-null event pointer
            // for DEL; passing one is valid on every kernel.
            cvt(unsafe { epoll_ctl(self.epfd.as_raw_fd(), EPOLL_CTL_DEL, fd, &mut ev) })?;
            Ok(())
        }

        /// Blocks until at least one fd is ready or `timeout` elapses.
        pub(crate) fn wait(
            &self,
            events: &mut Events,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let timeout_ms = epoll_timeout_ms(timeout);
            let cap = i32::try_from(events.buf.len()).unwrap_or(i32::MAX);
            // SAFETY: `buf` is a live, writable allocation of `cap`
            // epoll_event slots; the kernel writes at most `cap` entries.
            let n = loop {
                match cvt(unsafe {
                    epoll_wait(
                        self.epfd.as_raw_fd(),
                        events.buf.as_mut_ptr(),
                        cap,
                        timeout_ms,
                    )
                }) {
                    Ok(n) => break n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            events.len = usize::try_from(n).unwrap_or(0);
            Ok(())
        }
    }

    /// `epoll_wait`'s millisecond timeout for `timeout`: `-1` (block) for
    /// none, else rounded up, so a deadline 0.2 ms away sleeps 1 ms
    /// instead of spinning at 0 until it is due; saturates at `i32::MAX`.
    pub(super) fn epoll_timeout_ms(timeout: Option<Duration>) -> i32 {
        match timeout {
            Some(t) => i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX),
            None => -1,
        }
    }

    /// Runs `f` with a pointer/length pair for the C sockaddr form of
    /// `addr` (the sockaddr lives across the call only).
    fn with_sockaddr(addr: &SocketAddr, f: impl FnOnce(*const u8, u32) -> i32) -> i32 {
        match addr {
            SocketAddr::V4(v4) => {
                let sa = SockAddrIn {
                    sin_family: AF_INET as u16,
                    sin_port: v4.port().to_be(),
                    sin_addr: u32::from_ne_bytes(v4.ip().octets()),
                    sin_zero: [0; 8],
                };
                f(
                    (&sa as *const SockAddrIn).cast(),
                    std::mem::size_of::<SockAddrIn>() as u32,
                )
            }
            SocketAddr::V6(v6) => {
                let sa = SockAddrIn6 {
                    sin6_family: AF_INET6 as u16,
                    sin6_port: v6.port().to_be(),
                    sin6_flowinfo: v6.flowinfo(),
                    sin6_addr: v6.ip().octets(),
                    sin6_scope_id: v6.scope_id(),
                };
                f(
                    (&sa as *const SockAddrIn6).cast(),
                    std::mem::size_of::<SockAddrIn6>() as u32,
                )
            }
        }
    }

    fn socket_for(addr: &SocketAddr) -> io::Result<OwnedFd> {
        let domain = match addr {
            SocketAddr::V4(_) => AF_INET,
            SocketAddr::V6(_) => AF_INET6,
        };
        // SAFETY: socket takes no pointers; the fd is wrapped immediately.
        let fd = cvt(unsafe { socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) })?;
        // SAFETY: `fd` is a freshly created, owned descriptor.
        Ok(unsafe { OwnedFd::from_raw_fd(fd) })
    }

    /// Starts a non-blocking TCP connect to `addr`. The returned stream is
    /// in progress: register it for writability and check
    /// [`take_socket_error`] when it reports writable.
    pub(crate) fn connect_nonblocking(addr: &SocketAddr) -> io::Result<TcpStream> {
        let owned = socket_for(addr)?;
        // SAFETY: the sockaddr is properly initialized, outlives the call,
        // and the length matches its size.
        let ret = with_sockaddr(addr, |p, l| unsafe { connect(owned.as_raw_fd(), p, l) });
        if ret < 0 {
            let err = io::Error::last_os_error();
            if err.raw_os_error() != Some(EINPROGRESS) {
                return Err(err);
            }
        }
        Ok(TcpStream::from(owned))
    }

    /// Binds a non-blocking TCP listener on `addr` with an explicit
    /// accept-queue `backlog` (the kernel caps it at
    /// `net.core.somaxconn`). `std`'s `TcpListener::bind` hardcodes 128,
    /// which a reactor-wide dial burst — hundreds of peers connecting to
    /// the one shared listener at once — overflows, and every overflowed
    /// SYN costs its dialer a ~1 s kernel retransmit.
    pub(crate) fn listen_with_backlog(addr: &SocketAddr, backlog: i32) -> io::Result<TcpListener> {
        let owned = socket_for(addr)?;
        // SAFETY: as in `connect_nonblocking`; bind/listen take no other
        // pointers and the fd is owned.
        let ret = with_sockaddr(addr, |p, l| unsafe { bind(owned.as_raw_fd(), p, l) });
        cvt(ret)?;
        cvt(unsafe { listen(owned.as_raw_fd(), backlog) })?;
        Ok(TcpListener::from(owned))
    }

    /// Reads and clears the pending socket error (`SO_ERROR`): the result
    /// of a non-blocking connect once the socket reports writable.
    pub(crate) fn take_socket_error(stream: &TcpStream) -> io::Result<()> {
        let mut err: i32 = 0;
        let mut len: u32 = std::mem::size_of::<i32>() as u32;
        // SAFETY: `err`/`len` are live, writable, and correctly sized for
        // the SO_ERROR option.
        cvt(unsafe {
            getsockopt(
                stream.as_raw_fd(),
                SOL_SOCKET,
                SO_ERROR,
                (&mut err as *mut i32).cast(),
                &mut len,
            )
        })?;
        if err == 0 {
            Ok(())
        } else {
            Err(io::Error::from_raw_os_error(err))
        }
    }
}

#[cfg(not(target_os = "linux"))]
pub(crate) use stub::{
    connect_nonblocking, listen_with_backlog, take_socket_error, Events, Poller,
};

#[cfg(not(target_os = "linux"))]
mod stub {
    use super::{Interest, Readiness};
    use std::io;
    use std::net::{SocketAddr, TcpStream};
    use std::os::fd::RawFd;
    use std::time::Duration;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the p2pfl reactor requires Linux epoll",
        ))
    }

    pub(crate) struct Events;

    impl Events {
        pub(crate) fn with_capacity(_cap: usize) -> Events {
            Events
        }

        pub(crate) fn iter(&self) -> impl Iterator<Item = Readiness> + '_ {
            std::iter::empty()
        }
    }

    pub(crate) struct Poller;

    impl Poller {
        pub(crate) fn new() -> io::Result<Poller> {
            unsupported()
        }

        pub(crate) fn add(&self, _fd: RawFd, _token: u64, _i: Interest) -> io::Result<()> {
            unsupported()
        }

        pub(crate) fn modify(&self, _fd: RawFd, _token: u64, _i: Interest) -> io::Result<()> {
            unsupported()
        }

        pub(crate) fn delete(&self, _fd: RawFd) -> io::Result<()> {
            unsupported()
        }

        pub(crate) fn wait(&self, _ev: &mut Events, _t: Option<Duration>) -> io::Result<()> {
            unsupported()
        }
    }

    pub(crate) fn connect_nonblocking(_addr: &SocketAddr) -> io::Result<TcpStream> {
        unsupported()
    }

    pub(crate) fn listen_with_backlog(
        _addr: &SocketAddr,
        _backlog: i32,
    ) -> io::Result<std::net::TcpListener> {
        unsupported()
    }

    pub(crate) fn take_socket_error(_stream: &TcpStream) -> io::Result<()> {
        unsupported()
    }
}

/// The byte views: no FFI, so these also run under Miri.
#[cfg(test)]
mod byte_view_tests {
    use super::{f64_bytes, f64_bytes_mut};
    use crate::codec::to_bytes;

    /// Edge bit patterns: NaNs with payloads (quiet and signalling, both
    /// signs), the zeros, the smallest and largest subnormals, the
    /// infinities and ordinary values.
    fn edges() -> Vec<f64> {
        [
            0x7ff8_0000_0000_0001,
            0xfff0_0000_dead_beef,
            0x7ff0_0000_0000_0001,
            0xffff_ffff_ffff_ffff,
            0x0000_0000_0000_0000,
            0x8000_0000_0000_0000,
            0x0000_0000_0000_0001,
            0x800f_ffff_ffff_ffff,
            0x7ff0_0000_0000_0000,
            0xfff0_0000_0000_0000,
            1.5f64.to_bits(),
            (-2.25e-300f64).to_bits(),
        ]
        .map(f64::from_bits)
        .to_vec()
    }

    #[test]
    fn byte_views_are_the_codec_bytes() {
        let v = edges();
        // The codec writes a sequence as its length, then its elements.
        assert_eq!(f64_bytes(&v), &to_bytes(&v)[4..]);
        assert_eq!(f64_bytes(&v[3..5]), &to_bytes(&v[3..5].to_vec())[4..]);
        assert!(f64_bytes(&[]).is_empty());
    }

    #[test]
    fn byte_view_writes_read_back_exactly() {
        let want = edges();
        let wire = to_bytes(&want);
        let mut got = vec![0.0f64; want.len()];
        // Written in odd pieces, cutting elements anywhere.
        let bytes = f64_bytes_mut(&mut got);
        for (at, piece) in (0..).step_by(5).zip(wire[4..].chunks(5)) {
            bytes[at..at + piece.len()].copy_from_slice(piece);
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(f64_bytes(&got), &wire[4..]);
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    #[test]
    fn epoll_timeout_rounds_up_to_whole_milliseconds() {
        use super::imp::epoll_timeout_ms;
        assert_eq!(epoll_timeout_ms(None), -1);
        assert_eq!(epoll_timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(epoll_timeout_ms(Some(Duration::from_micros(200))), 1);
        assert_eq!(epoll_timeout_ms(Some(Duration::from_nanos(1))), 1);
        assert_eq!(epoll_timeout_ms(Some(Duration::from_millis(1))), 1);
        assert_eq!(epoll_timeout_ms(Some(Duration::from_micros(1_001))), 2);
        assert_eq!(
            epoll_timeout_ms(Some(Duration::from_millis(i32::MAX as u64))),
            i32::MAX
        );
        assert_eq!(epoll_timeout_ms(Some(Duration::MAX)), i32::MAX);
    }

    #[test]
    fn poll_detects_readable_after_write() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Events::with_capacity(8);
        // Nothing written yet: a short wait returns no events.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(events.iter().count(), 0);

        client.write_all(b"hi").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev: Vec<Readiness> = events.iter().collect();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].token, 7);
        assert!(ev[0].readable);

        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 2);
        poller.delete(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn nonblocking_connect_completes_on_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = connect_nonblocking(&addr).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(stream.as_raw_fd(), 1, Interest::WRITE).unwrap();
        let mut events = Events::with_capacity(4);
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev: Vec<Readiness> = events.iter().collect();
        assert!(ev.iter().any(|e| e.token == 1 && e.writable));
        take_socket_error(&stream).unwrap();
        let _ = listener.accept().unwrap();
    }

    #[test]
    fn deep_backlog_listener_accepts_and_reports_addr() {
        let addr = "127.0.0.1:0".parse().unwrap();
        let listener = listen_with_backlog(&addr, 1024).unwrap();
        let bound = listener.local_addr().unwrap();
        assert_ne!(bound.port(), 0, "ephemeral port must be assigned");
        let _client = TcpStream::connect(bound).unwrap();
        // Non-blocking listener: the connection is in the accept queue.
        let poller = Poller::new().unwrap();
        poller.add(listener.as_raw_fd(), 3, Interest::READ).unwrap();
        let mut events = Events::with_capacity(4);
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.readable));
        let (_conn, peer) = listener.accept().unwrap();
        assert_eq!(peer.ip(), bound.ip());
    }

    #[test]
    fn nonblocking_connect_to_dead_port_reports_error() {
        // Reserve a port, then close it so nothing is listening.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);

        let stream = connect_nonblocking(&addr).unwrap();
        let poller = Poller::new().unwrap();
        poller.add(stream.as_raw_fd(), 2, Interest::WRITE).unwrap();
        let mut events = Events::with_capacity(4);
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().count() >= 1);
        assert!(take_socket_error(&stream).is_err());
    }
}
