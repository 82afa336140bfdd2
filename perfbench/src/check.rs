//! The benchmark's correctness gate: conservation and the oracle.
//!
//! For every phase the generator keeps a ledger of what it offered and
//! how each submission was answered; the sink keeps what was delivered.
//! [`check`] requires
//!
//! * offered = accepted + rejected,
//! * exactly one record per accepted `(client, seq)` — no duplicate, no
//!   missing, no record nobody was told was accepted,
//! * accepted = delivered + failed,
//! * and, when an oracle is given, every delivered outcome's digest equal
//!   to the synchronous broker's digest for the same pool event.

use std::collections::HashMap;

use crate::sink::Rec;

/// What the generator saw for one phase.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Submissions attempted (each distinct `(client, seq)` once, plus
    /// every retry of a rejected one).
    pub offered: u64,
    /// `(client, seq)` of every accepted submission.
    pub accepted: Vec<(u32, u64)>,
    /// Submissions answered with a reject.
    pub rejected: u64,
}

/// Counts from a passing check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Records whose outcome was a publish.
    pub delivered: u64,
    /// Records carrying a broker error.
    pub failed: u64,
}

/// Checks one phase's records against its ledger; `oracle` maps a
/// `(client, seq)` to the digest the synchronous broker produced for the
/// same event. Returns the violations found (at most a few of each kind
/// are spelled out).
pub fn check(
    ledger: &Ledger,
    recs: &[Rec],
    oracle: Option<&dyn Fn(u32, u64) -> u64>,
) -> Result<Tally, Vec<String>> {
    let mut errors = Vec::new();
    let mut spelled = Vec::new();
    let mut note = |kind: &str, count: &mut u32, msg: String| {
        *count += 1;
        if *count <= 3 {
            spelled.push(format!("{kind}: {msg}"));
        }
    };
    let (mut n_dup, mut n_stray, mut n_missing, mut n_oracle) = (0, 0, 0, 0);

    let accepted = ledger.accepted.len() as u64;
    if ledger.offered != accepted + ledger.rejected {
        errors.push(format!(
            "conservation: offered {} != accepted {accepted} + rejected {}",
            ledger.offered, ledger.rejected
        ));
    }
    let index: HashMap<(u32, u64), usize> = ledger
        .accepted
        .iter()
        .enumerate()
        .map(|(i, &key)| (key, i))
        .collect();
    if index.len() != ledger.accepted.len() {
        errors.push("ledger: a (client, seq) was accepted twice".to_string());
    }
    let mut seen = vec![false; ledger.accepted.len()];
    let mut tally = Tally::default();
    for r in recs {
        let Some(&i) = index.get(&(r.client, r.seq)) else {
            note(
                "stray record",
                &mut n_stray,
                format!("({}, {}) was never accepted", r.client, r.seq),
            );
            continue;
        };
        if std::mem::replace(&mut seen[i], true) {
            note(
                "duplicate record",
                &mut n_dup,
                format!("({}, {}) delivered twice", r.client, r.seq),
            );
            continue;
        }
        if r.ok {
            tally.delivered += 1;
            if let Some(expected) = oracle {
                let want = expected(r.client, r.seq);
                if r.digest != want {
                    note(
                        "oracle mismatch",
                        &mut n_oracle,
                        format!(
                            "({}, {}) outcome digest {:#x}, synchronous broker {want:#x}",
                            r.client, r.seq, r.digest
                        ),
                    );
                }
            }
        } else {
            tally.failed += 1;
        }
    }
    for (i, was_seen) in seen.iter().enumerate() {
        if !was_seen {
            let (c, s) = ledger.accepted[i];
            note(
                "missing record",
                &mut n_missing,
                format!("accepted ({c}, {s}) never delivered"),
            );
        }
    }
    errors.append(&mut spelled);
    if tally.delivered + tally.failed + u64::from(n_missing) != accepted {
        errors.push(format!(
            "conservation: accepted {accepted} != delivered {} + failed {} + missing {n_missing}",
            tally.delivered, tally.failed
        ));
    }
    for (kind, n) in [
        ("duplicate records", n_dup),
        ("stray records", n_stray),
        ("missing records", n_missing),
        ("oracle mismatches", n_oracle),
    ] {
        if n > 3 {
            errors.push(format!("{kind}: {n} in total"));
        }
    }
    if errors.is_empty() {
        Ok(tally)
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::digest;
    use pubsub_core::{Decision, MessageCosts, PublishOutcome, SubscriptionId, UnicastReason};
    use pubsub_netsim::NodeId;

    fn outcome(decision: Decision) -> PublishOutcome {
        PublishOutcome {
            decision,
            group_region: Some(2),
            matched_subscriptions: vec![SubscriptionId(4), SubscriptionId(9)],
            interested: vec![NodeId(17), NodeId(40)],
            unreachable: Vec::new(),
            costs: MessageCosts {
                scheme: 12.5,
                unicast: 20.0,
                ideal: 11.0,
            },
        }
    }

    /// The synchronous broker's answer in these tests: even seqs
    /// multicast to group 2, odd seqs unicast below threshold.
    fn oracle_outcome(seq: u64) -> PublishOutcome {
        if seq.is_multiple_of(2) {
            outcome(Decision::Multicast { group: 2 })
        } else {
            outcome(Decision::Unicast {
                reason: UnicastReason::BelowThreshold,
            })
        }
    }

    fn oracle(_client: u32, seq: u64) -> u64 {
        digest(&oracle_outcome(seq))
    }

    fn rec(client: u32, seq: u64, o: &PublishOutcome) -> Rec {
        Rec {
            client,
            seq,
            ok: true,
            digest: digest(o),
            at_ns: seq,
            ingest_ns: 0,
            pipeline_ns: 0,
            egress_ns: 0,
            sink_ns: 0,
        }
    }

    fn phase(n: u64) -> (Ledger, Vec<Rec>) {
        let ledger = Ledger {
            offered: n,
            accepted: (0..n).map(|s| ((s % 3) as u32, s)).collect(),
            rejected: 0,
        };
        let recs = (0..n)
            .map(|s| rec((s % 3) as u32, s, &oracle_outcome(s)))
            .collect();
        (ledger, recs)
    }

    fn run(ledger: &Ledger, recs: &[Rec]) -> Result<Tally, Vec<String>> {
        check(ledger, recs, Some(&oracle))
    }

    #[test]
    fn a_clean_phase_passes() {
        let (ledger, recs) = phase(50);
        let tally = run(&ledger, &recs).expect("clean phase");
        assert_eq!(tally.delivered, 50);
        assert_eq!(tally.failed, 0);
    }

    #[test]
    fn a_flipped_decision_is_rejected() {
        let (ledger, mut recs) = phase(50);
        // Seq 10 should multicast; deliver it as a unicast instead.
        recs[10] = rec(
            1,
            10,
            &outcome(Decision::Unicast {
                reason: UnicastReason::BelowThreshold,
            }),
        );
        let errors = run(&ledger, &recs).expect_err("flipped decision");
        assert!(
            errors.iter().any(|e| e.starts_with("oracle mismatch")),
            "{errors:?}"
        );
    }

    #[test]
    fn a_flipped_cost_bit_is_rejected() {
        let (ledger, mut recs) = phase(50);
        let mut o = oracle_outcome(4);
        o.costs.scheme = f64::from_bits(o.costs.scheme.to_bits() ^ 1);
        recs[4] = rec(1, 4, &o);
        assert!(run(&ledger, &recs).is_err());
    }

    #[test]
    fn a_duplicated_seq_is_rejected() {
        let (ledger, mut recs) = phase(50);
        recs.push(recs[7]);
        let errors = run(&ledger, &recs).expect_err("duplicate");
        assert!(
            errors.iter().any(|e| e.starts_with("duplicate record")),
            "{errors:?}"
        );
    }

    #[test]
    fn a_missing_seq_is_rejected() {
        let (ledger, mut recs) = phase(50);
        recs.remove(23);
        let errors = run(&ledger, &recs).expect_err("missing");
        assert!(
            errors.iter().any(|e| e.starts_with("missing record")),
            "{errors:?}"
        );
    }

    #[test]
    fn a_record_nobody_accepted_is_rejected() {
        let (ledger, mut recs) = phase(50);
        recs.push(rec(0, 999, &oracle_outcome(999)));
        let errors = run(&ledger, &recs).expect_err("stray");
        assert!(
            errors.iter().any(|e| e.starts_with("stray record")),
            "{errors:?}"
        );
    }

    #[test]
    fn offered_must_equal_accepted_plus_rejected() {
        let (mut ledger, recs) = phase(50);
        ledger.offered += 1;
        let errors = run(&ledger, &recs).expect_err("offer mismatch");
        assert!(
            errors.iter().any(|e| e.contains("offered 51")),
            "{errors:?}"
        );
        ledger.rejected = 1;
        assert!(run(&ledger, &recs).is_ok());
    }

    #[test]
    fn failed_records_count_toward_conservation() {
        let (ledger, mut recs) = phase(10);
        recs[3].ok = false;
        recs[3].digest = 0;
        let tally = run(&ledger, &recs).expect("a failed record is still a record");
        assert_eq!((tally.delivered, tally.failed), (9, 1));
    }
}
