//! Property-based tests for the PROFIBUS message analyses.

use proptest::prelude::*;

use profirt_base::{MessageStream, StreamSet, Time};
use profirt_core::{
    compare_policies, max_feasible_ttr, tcycle::token_lateness, DmAnalysis, EdfAnalysis,
    FcfsAnalysis, MasterConfig, NetworkConfig, TcycleModel,
};

/// Random small networks with generous periods (keeps EDF capacity < 1).
fn arb_network() -> impl Strategy<Value = NetworkConfig> {
    let master = (
        proptest::collection::vec((50i64..500, 1i64..40, 1i64..10), 1..=4),
        0i64..800,
    )
        .prop_map(|(streams, cl)| {
            let streams: Vec<MessageStream> = streams
                .into_iter()
                .map(|(ch, t_factor, d_frac)| {
                    // Periods 20k..800k ticks, deadlines a fraction of T.
                    let t = Time::new(20_000 * t_factor);
                    let d = Time::new((t.ticks() / 10) * d_frac.max(1));
                    MessageStream::new(Time::new(ch), d, t).unwrap()
                })
                .collect();
            MasterConfig::new(StreamSet::new(streams).unwrap(), Time::new(cl))
        });
    (proptest::collection::vec(master, 1..=3), 500i64..5_000)
        .prop_map(|(masters, ttr)| NetworkConfig::new(masters, Time::new(ttr)).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn refined_tdel_never_exceeds_paper(net in arb_network()) {
        prop_assert!(
            token_lateness(&net, TcycleModel::Refined).unwrap()
                <= token_lateness(&net, TcycleModel::Paper).unwrap()
        );
    }

    #[test]
    fn fcfs_bound_flat_within_master(net in arb_network()) {
        let an = FcfsAnalysis::analyze(&net).unwrap();
        for rows in &an.masters {
            for w in rows.windows(2) {
                prop_assert_eq!(w[0].response_time, w[1].response_time);
            }
        }
    }

    #[test]
    fn dm_conservative_dominates_paper(net in arb_network()) {
        let p = DmAnalysis::paper().analyze(&net).unwrap();
        let c = DmAnalysis::conservative().analyze(&net).unwrap();
        for (a, b) in p.iter().zip(c.iter()) {
            prop_assert!(b.response_time >= a.response_time);
        }
    }

    #[test]
    fn dm_tightest_stream_never_worse_than_fcfs(net in arb_network()) {
        let cmp = compare_policies(
            &net,
            &DmAnalysis::paper(),
            &EdfAnalysis::paper(),
        ).unwrap();
        for ok in cmp.priority_dominates_fcfs_on_tightest() {
            prop_assert!(ok);
        }
    }

    #[test]
    fn dm_conservative_tightest_stream_never_worse_than_fcfs(net in arb_network()) {
        // The conservative variant charges a blocking cycle on top of the
        // paper's bound and still never exceeds FCFS on the tightest stream.
        let cmp = compare_policies(
            &net,
            &DmAnalysis::conservative(),
            &EdfAnalysis::paper(),
        ).unwrap();
        for ok in cmp.priority_dominates_fcfs_on_tightest() {
            prop_assert!(ok);
        }
    }

    #[test]
    fn ttr_boundary_is_exact(net in arb_network()) {
        let setting = max_feasible_ttr(&net, TcycleModel::Paper).unwrap();
        if let Some(ttr) = setting.max_ttr {
            let at = FcfsAnalysis::analyze(&net.with_ttr(ttr).unwrap()).unwrap();
            prop_assert!(at.all_schedulable(), "eq. (15) TTR not schedulable");
            let over = FcfsAnalysis::analyze(
                &net.with_ttr(ttr + Time::ONE).unwrap()
            ).unwrap();
            prop_assert!(!over.all_schedulable(), "TTR+1 still schedulable");
        }
    }

    #[test]
    fn refined_model_never_shrinks_feasible_ttr(net in arb_network()) {
        // Refined Tdel <= paper Tdel, so eq. (15) leaves at least as much
        // TTR headroom: a paper-feasible network stays refined-feasible.
        let paper = max_feasible_ttr(&net, TcycleModel::Paper).unwrap().max_ttr;
        let refined = max_feasible_ttr(&net, TcycleModel::Refined).unwrap().max_ttr;
        if let Some(p) = paper {
            prop_assert!(refined.is_some_and(|r| r >= p), "{paper:?} vs {refined:?}");
        }
    }

    #[test]
    fn ttr_monotone_response(net in arb_network(), bump in 1i64..5_000) {
        // Increasing TTR increases every response bound (Tcycle grows).
        let a = FcfsAnalysis::analyze(&net).unwrap();
        let b = FcfsAnalysis::analyze(
            &net.with_ttr(net.ttr + Time::new(bump)).unwrap()
        ).unwrap();
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert!(y.response_time > x.response_time);
        }
    }

    #[test]
    fn edf_rta_at_least_one_tcycle(net in arb_network()) {
        if let Ok(an) = EdfAnalysis::paper().analyze(&net) {
            for r in an.iter() {
                prop_assert!(r.response_time >= an.tcycle);
            }
        }
    }

    #[test]
    fn jitter_monotone_dm(net in arb_network(), extra in 1i64..50_000) {
        // Adding jitter to every stream can only increase DM bounds.
        let bumped_masters: Vec<MasterConfig> = net.masters.iter().map(|m| {
            let streams: Vec<MessageStream> = m.streams.streams().iter().map(|s| {
                let mut s = *s;
                s.j += Time::new(extra);
                s
            }).collect();
            MasterConfig::new(StreamSet::new(streams).unwrap(), m.cl)
        }).collect();
        let bumped = NetworkConfig::new(bumped_masters, net.ttr).unwrap();
        let a = DmAnalysis::conservative().analyze(&net).unwrap();
        let b = DmAnalysis::conservative().analyze(&bumped).unwrap();
        for (x, y) in a.iter().zip(b.iter()) {
            // Bounds reported for unschedulable streams are cut at the
            // deadline crossing, so compare only jointly-schedulable rows.
            if x.schedulable && y.schedulable {
                prop_assert!(y.response_time >= x.response_time);
            }
            // Schedulability can only degrade.
            prop_assert!(!y.schedulable || x.schedulable);
        }
    }
}
