//! The [`Payload`] trait: what the simulator needs to know about messages.
//!
//! The simulator is generic over the application message type. To account
//! for communication cost (the central metric of the reproduced paper), each
//! message reports its serialized size in bytes; to break metrics down per
//! protocol phase, it reports a static kind label.

use crate::codec::Pool;

/// Application message carried by the simulated network.
///
/// `Clone` is required so the fault layer can deliver duplicate copies of a
/// message (the [`crate::FaultAction::Duplicate`] fault); every real payload
/// in the workspace is a cheaply cloneable enum or reference-counted blob.
pub trait Payload: Clone + Send + 'static {
    /// Size of the message in bytes for the communication cost ledger.
    /// Implementations count what the paper's wire format would carry
    /// (weight tensors dominate in this workspace, at 4 bytes per `f32`
    /// parameter). This is the figures' ledger, not the length of a
    /// [`crate::codec`] frame: that codec ships model vectors as `f64`, 8
    /// bytes per parameter, so real-network results match the simulator's
    /// bit for bit.
    fn size_bytes(&self) -> u64;

    /// A short static label grouping messages of the same protocol step,
    /// e.g. `"sac.share"` or `"raft.append_entries"`.
    fn kind(&self) -> &'static str {
        "message"
    }

    /// Gives the `f64` storage of a message that is on the wire to
    /// `vectors`, except what another holder still shares. The default
    /// gives nothing.
    fn recycle(self, _vectors: &mut Pool) {}
}

/// Blanket helper payload for tests and simple examples: a labeled blob with
/// an explicit size.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Blob {
    /// Declared size in bytes.
    pub size: u64,
    /// Free-form tag the receiving actor can dispatch on.
    pub tag: u64,
}

impl Blob {
    /// Creates a blob of `size` bytes with tag 0.
    pub fn of_size(size: u64) -> Self {
        Blob { size, tag: 0 }
    }
}

impl Payload for Blob {
    fn size_bytes(&self) -> u64 {
        self.size
    }

    fn kind(&self) -> &'static str {
        "blob"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_reports_declared_size() {
        let b = Blob::of_size(1234);
        assert_eq!(b.size_bytes(), 1234);
        assert_eq!(b.kind(), "blob");
    }
}
