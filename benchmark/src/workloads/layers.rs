//! What the traced runs of all workloads share: the replay of the
//! single layers on the state a request is about to meet, the solve the
//! program counts inside a call, and the per-layer metrics read from
//! those spans and from the state core's counters.

use crate::report::Outcome;
use crate::span::Spans;
use crate::stats::{median, percentile, ratio};
use crate::sut::{self, Application, Counters, Network, Replay, StateSnapshot};

/// The replays of one traced run: the buffers for the network being
/// replayed on, the exact work counts of the replayed assignments, and
/// the widest-path part of their time.
#[derive(Default)]
pub struct ReplayTally {
    replay: Option<Replay>,
    rows_filled: u64,
    gamma_hits: u64,
    assigns: u64,
    too_many_elements: u64,
    /// Σ rows × tree time over the replays.
    tree_ns_in_assigns: f64,
}

impl ReplayTally {
    /// Later replays run on `network` (an instance's own).
    pub fn on_network(&mut self, network: &Network) {
        self.replay = Some(Replay::new(network));
    }

    /// Replays for `app`, on the state `snapshot` shows, what admission
    /// is about to do: predict the capacities, assign, and analyse the
    /// found path's availability; and prices one widest-path sweep. Each
    /// step is a root span of `request`. `counted` says whether the
    /// replay feeds the exact counts. Returns the assignment's
    /// nanoseconds.
    pub fn replay(
        &mut self,
        spans: &mut Spans,
        network: &Network,
        snapshot: &StateSnapshot,
        app: &Application,
        request: u64,
        counted: bool,
    ) -> u64 {
        let replay = self.replay.as_mut().expect("on_network comes first");
        let s = spans.open("core.snapshot.predict", request);
        let capacities = sut::predict(snapshot, app);
        spans.close(s);
        let s = spans.open("replay.core.engine.assign", request);
        let assigned = replay.assign(network, app, &capacities);
        spans.close(s);
        let assign_ns = spans.get(s).duration_ns();
        let s = spans.open("replay.core.widest_path.tree", request);
        replay.widest_tree(network, app, &capacities);
        spans.close(s);
        let tree_ns = spans.get(s).duration_ns();
        if let Some((path, work)) = &assigned {
            let s = spans.open("replay.alloc.availability", request);
            let analysed = sut::availability(network, path);
            spans.close(s);
            self.tree_ns_in_assigns += work.rows_filled as f64 * tree_ns as f64;
            if counted {
                self.rows_filled += work.rows_filled;
                self.gamma_hits += work.gamma_hits;
                self.assigns += 1;
                self.too_many_elements += u64::from(analysed.is_err());
            }
        }
        assign_ns
    }

    /// The metrics of the replayed layers and of the snapshot captures
    /// taken beside them.
    pub fn report(&self, spans: &Spans, out: &mut Outcome) {
        let us = |name: &str| -> Vec<f64> {
            spans
                .durations_ms(name)
                .into_iter()
                .map(|v| 1e3 * v)
                .collect()
        };
        let assign_ms = spans.durations_ms("replay.core.engine.assign");
        let assign_ns = spans.total_ns("replay.core.engine.assign") as f64;
        out.set("core.engine.assign_ms_p50", percentile(&assign_ms, 0.5));
        out.set("core.engine.assign_ms_p95", percentile(&assign_ms, 0.95));
        out.set(
            "core.engine.rows_filled_per_assign",
            ratio(self.rows_filled as f64, self.assigns as f64),
        );
        out.set(
            "core.engine.gamma_hit_rate",
            ratio(
                self.gamma_hits as f64,
                (self.gamma_hits + self.rows_filled) as f64,
            ),
        );
        out.set(
            "core.widest_path.tree_us_p50",
            median(&us("replay.core.widest_path.tree")),
        );
        out.set(
            "core.widest_path.tree_share",
            ratio(self.tree_ns_in_assigns, assign_ns),
        );
        out.set(
            "core.snapshot.capture_us_p50",
            median(&us("core.snapshot.capture")),
        );
        out.set(
            "core.snapshot.predict_us_p50",
            median(&us("core.snapshot.predict")),
        );
        out.set(
            "alloc.availability.analysis_us_p50",
            median(&us("replay.alloc.availability")),
        );
        out.set(
            "alloc.availability.too_many_elements",
            self.too_many_elements as f64,
        );
    }
}

/// Inside a call the program counts its own solve time, and the solve
/// is the call's last step: records it as the last child of the call's
/// span `call`, and its per-solve time in `solve_ms`.
pub fn insert_counted_solve(
    spans: &mut Spans,
    call: u32,
    counted: &Counters,
    solve_ms: &mut Vec<f64>,
) {
    if counted.solves == 0 {
        return;
    }
    let (start_ns, end_ns, request) = {
        let span = spans.get(call);
        (span.start_ns, span.end_ns, span.request)
    };
    let solve_start = end_ns.saturating_sub(counted.solve_nanos).max(start_ns);
    spans.insert("alloc.num.solve", request, Some(call), solve_start, end_ns);
    solve_ms.push(counted.solve_nanos as f64 / counted.solves as f64 / 1e6);
}

/// The exact counts the state core keeps, over the calls `c` sums.
pub fn report_counters(c: &Counters, out: &mut Outcome) {
    out.set(
        "core.state.residual_updates_per_commit",
        ratio(c.residual_updates as f64, c.commits as f64),
    );
    out.set("core.state.rollbacks", c.rollbacks as f64);
    out.set(
        "alloc.num.warm_iters_per_solve",
        ratio(c.warm_iters as f64, c.warm_solves as f64),
    );
    out.set("alloc.num.cold_solves", c.cold_solves as f64);
}
