//! The one simulator driver for [`RoundCore`] groups: host a group on a
//! [`Sim`], run a round to its end and read each leader's outcome. It
//! never panics on a failed round, so the session aggregates through it
//! and the test harness wraps it.

use super::{RoundCore, SacMsg, SacPhase, Wire};
use crate::weights::WeightVector;
use p2pfl_simnet::{FaultPlan, NodeId, Sim, SimDuration};

/// How one leader's round ended: its frozen contributor positions (in the
/// roster it finished under) and the average, or the phase it ended in.
pub type RoundOutcome = Result<(Vec<usize>, WeightVector), String>;

/// Virtual time [`drive_round`] gives a round. A leader's result is
/// frozen once it is `Done`, so running past that changes nothing.
const ROUND_TIME: SimDuration = SimDuration::from_secs(30);

/// A simulator seeded `seed` hosting every `(id, core)`, its sends
/// filtered through `plan` if one is given. Ids must be `0..` in order, as
/// the simulator assigns them.
pub fn sim_group<W: Wire>(
    seed: u64,
    actors: impl IntoIterator<Item = (NodeId, RoundCore<W>)>,
    plan: Option<&FaultPlan>,
) -> Sim<SacMsg> {
    let mut sim = Sim::new(seed);
    for (id, actor) in actors {
        assert_eq!(sim.add_node(actor), id, "simulator ids are dense");
    }
    if let Some(plan) = plan {
        sim.apply_fault_plan(plan);
    }
    sim
}

/// Starts round `round` on every leader in `leaders`, runs the simulator
/// for 30 s of virtual time and returns each leader's outcome, in order.
/// A `Done` leader's result moves out into its outcome.
pub fn drive_round<W: Wire>(
    sim: &mut Sim<SacMsg>,
    leaders: impl IntoIterator<Item = NodeId>,
    round: u64,
) -> Vec<RoundOutcome> {
    let leaders: Vec<NodeId> = leaders.into_iter().collect();
    for &leader in &leaders {
        sim.exec::<RoundCore<W>, _, _>(leader, move |a, ctx| a.start_round(ctx, round));
    }
    sim.run_until(sim.now() + ROUND_TIME);
    leaders
        .iter()
        .map(|&leader| {
            let a = sim.actor_mut::<RoundCore<W>>(leader);
            match (&a.phase, a.result.take()) {
                (SacPhase::Done, Some(result)) => Ok((a.contributors.clone(), result)),
                (phase, _) => Err(format!("{phase:?}")),
            }
        })
        .collect()
}
