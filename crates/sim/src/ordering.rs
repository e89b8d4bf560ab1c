//! Pluggable same-instant event ordering.
//!
//! The queue's committed contract is `(time, seq)` FIFO: two events
//! scheduled for the same instant pop in insertion order. That is one
//! *legal* ordering out of many — the scheduler's correctness claims
//! (conservation, migration fairness, Lemma 1's balancing-step budget)
//! are supposed to hold under **any** serialization of same-instant
//! events. [`OrderingPolicy`] makes the tie-break pluggable so the
//! `speedbal-cli check --fuzz` driver can explore the schedule space:
//!
//! * [`OrderingPolicy::Fifo`] — the default. Bit-identical to the
//!   historical `(time, seq)` contract; every committed result
//!   (`results_quick.txt`, golden traces, `BENCH_sim.json`) is produced
//!   under it.
//! * [`OrderingPolicy::Lifo`] — reverse insertion order within an
//!   instant. The cheapest adversarial ordering: it inverts every
//!   same-instant causality assumption.
//! * [`OrderingPolicy::SeededShuffle`] — a seeded uniformly random pick
//!   among the instant's pending events, one draw per serve. The same
//!   seed replays the same schedule bit-for-bit, so a failing
//!   `(scenario, seed, ordering)` triple is a complete repro.
//! * [`OrderingPolicy::Exhaustive`] — systematic enumeration: each
//!   serve of an instant with `n <= k` pending events is a branch point
//!   with `n` children. A `prefix` of branch choices replays a specific
//!   path; the queue records the `(choice, arity)` log of the path it
//!   actually took so a driver can run iterative deepening over the
//!   whole tree (see `speedbal-check`'s fuzz module). Instants with
//!   more than `k` pending events fall back to FIFO (arity 1), keeping
//!   the tree finite.
//!
//! Reordering never changes *which* events fire or *when* — only the
//! serve order within one instant. Cancellation semantics are
//! preserved: a handler that cancels or re-arms a slot kills the
//! slot's not-yet-served same-instant event exactly as FIFO would have
//! had the cancel popped first (see `EventQueue::pop_reordered`).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// How same-instant events are serialized. See the module docs.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum OrderingPolicy {
    /// Insertion order — the committed deterministic baseline.
    #[default]
    Fifo,
    /// Reverse insertion order within each instant.
    Lifo,
    /// Seeded uniform pick among the instant's pending events.
    SeededShuffle(u64),
    /// Enumerate same-instant permutations up to batch size `k`;
    /// `prefix` replays a specific path through the choice tree.
    Exhaustive {
        /// Widest same-instant batch that branches; wider ones serve FIFO.
        k: u32,
        /// Branch choices to replay, one per branch point, in order.
        prefix: Vec<u32>,
    },
}

impl OrderingPolicy {
    /// True for the committed FIFO baseline (no reordering machinery
    /// engaged at all).
    pub fn is_fifo(&self) -> bool {
        matches!(self, OrderingPolicy::Fifo)
    }
}

/// Renders the policy in the copy-pasteable repro grammar parsed by
/// [`FromStr`]: `fifo`, `lifo`, `shuffle:SEED`, `exhaustive:K` or
/// `exhaustive:K:C.C.C` (prefix choices dot-separated).
impl fmt::Display for OrderingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrderingPolicy::Fifo => write!(f, "fifo"),
            OrderingPolicy::Lifo => write!(f, "lifo"),
            OrderingPolicy::SeededShuffle(seed) => write!(f, "shuffle:{seed}"),
            OrderingPolicy::Exhaustive { k, prefix } => {
                write!(f, "exhaustive:{k}")?;
                if !prefix.is_empty() {
                    write!(f, ":")?;
                    for (i, c) in prefix.iter().enumerate() {
                        if i > 0 {
                            write!(f, ".")?;
                        }
                        write!(f, "{c}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

impl FromStr for OrderingPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "fifo" => return Ok(OrderingPolicy::Fifo),
            "lifo" => return Ok(OrderingPolicy::Lifo),
            _ => {}
        }
        if let Some(seed) = s.strip_prefix("shuffle:") {
            let seed = seed
                .parse::<u64>()
                .map_err(|e| format!("bad shuffle seed {seed:?}: {e}"))?;
            return Ok(OrderingPolicy::SeededShuffle(seed));
        }
        if let Some(rest) = s.strip_prefix("exhaustive:") {
            let (k_str, prefix_str) = match rest.split_once(':') {
                Some((k, p)) => (k, Some(p)),
                None => (rest, None),
            };
            let k = k_str
                .parse::<u32>()
                .map_err(|e| format!("bad exhaustive batch bound {k_str:?}: {e}"))?;
            if k == 0 {
                return Err("exhaustive batch bound must be at least 1".into());
            }
            let prefix = match prefix_str {
                None | Some("") => Vec::new(),
                Some(p) => p
                    .split('.')
                    .map(|c| {
                        c.parse::<u32>()
                            .map_err(|e| format!("bad exhaustive choice {c:?}: {e}"))
                    })
                    .collect::<Result<Vec<u32>, String>>()?,
            };
            return Ok(OrderingPolicy::Exhaustive { k, prefix });
        }
        Err(format!(
            "unknown ordering policy {s:?} \
             (expected fifo | lifo | shuffle:SEED | exhaustive:K[:C.C...])"
        ))
    }
}

/// Computes the next depth-first path through an
/// [`OrderingPolicy::Exhaustive`] choice tree from the `(choice, arity)`
/// log of the path just taken: increment the deepest branch point that
/// still has siblings left and drop everything below it. `None` when
/// the logged path was the tree's last — enumeration is complete.
///
/// Looping `run(prefix) -> log; prefix = next_prefix(&log)` from an
/// empty prefix visits every schedule exactly once (standard stateless
/// model checking: the tree is defined by the program's own branch
/// points, and a run's log is its path).
pub fn next_prefix(log: &[(u32, u32)]) -> Option<Vec<u32>> {
    for (i, &(choice, arity)) in log.iter().enumerate().rev() {
        if choice + 1 < arity {
            let mut p: Vec<u32> = log[..i].iter().map(|&(c, _)| c).collect();
            p.push(choice + 1);
            return Some(p);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_prefix_walks_a_tree_depth_first() {
        // A two-level tree: arity 2 then arity 3 — six leaves.
        assert_eq!(next_prefix(&[(0, 2), (0, 3)]), Some(vec![0, 1]));
        assert_eq!(next_prefix(&[(0, 2), (2, 3)]), Some(vec![1]));
        assert_eq!(next_prefix(&[(1, 2), (2, 3)]), None);
        assert_eq!(next_prefix(&[]), None, "no branch points = one path");
    }

    #[test]
    fn default_is_fifo() {
        assert_eq!(OrderingPolicy::default(), OrderingPolicy::Fifo);
        assert!(OrderingPolicy::Fifo.is_fifo());
        assert!(!OrderingPolicy::Lifo.is_fifo());
    }

    #[test]
    fn display_round_trips_through_from_str() {
        let cases = [
            OrderingPolicy::Fifo,
            OrderingPolicy::Lifo,
            OrderingPolicy::SeededShuffle(0),
            OrderingPolicy::SeededShuffle(0xB0A7_10AD),
            OrderingPolicy::Exhaustive {
                k: 3,
                prefix: vec![],
            },
            OrderingPolicy::Exhaustive {
                k: 4,
                prefix: vec![0, 2, 1],
            },
        ];
        for p in cases {
            let s = p.to_string();
            let back: OrderingPolicy = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(back, p, "{s}");
        }
    }

    #[test]
    fn from_str_rejects_malformed_specs() {
        for bad in [
            "",
            "fifolifo",
            "shuffle:",
            "shuffle:x",
            "exhaustive:",
            "exhaustive:0",
            "exhaustive:x",
            "exhaustive:3:1.x",
        ] {
            assert!(bad.parse::<OrderingPolicy>().is_err(), "{bad:?} accepted");
        }
    }
}
