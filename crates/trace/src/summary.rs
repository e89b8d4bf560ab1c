//! Plain-text trace summary: the aggregate view (counters, migration
//! histograms, per-core speed statistics, per-task time-in-state) rendered
//! as a human-readable report.

use crate::event::{MigrationReason, ProcFaultKind, RequestDropReason};
use crate::sink::TraceBuffer;
use speedbal_machine::{CoreId, DomainLevel};
use std::fmt::Write as _;

/// Renders the buffer's aggregates as a multi-line report.
pub fn render_summary(buf: &TraceBuffer) -> String {
    let mut out = String::new();
    let c = buf.counters();

    let span = match buf.start_time() {
        Some(start) => buf.end_time().saturating_since(start),
        None => speedbal_sim::SimDuration::ZERO,
    };
    let _ = writeln!(out, "trace summary ({span} of simulated time)");
    if let Some(tag) = buf.config().ordering_tag.as_deref() {
        let _ = writeln!(out, "  same-instant ordering: {tag} (non-FIFO fuzz run)");
    }
    let _ = writeln!(
        out,
        "  records retained {}  dropped {}",
        buf.len(),
        buf.dropped()
    );
    if buf.sampled_out() > 0 {
        let _ = writeln!(
            out,
            "  sampled out {} (ctx-switch/speed-sample records withheld by \
             the sampling rate; aggregates above still cover them)",
            buf.sampled_out()
        );
    }
    let _ = writeln!(
        out,
        "  dispatches {}  descheds {}  preemptions {}",
        c.dispatches, c.descheds, c.preemptions
    );
    let _ = writeln!(
        out,
        "  wakes {}  sleeps {}  exits {}",
        c.wakes, c.sleeps, c.exits
    );
    let _ = writeln!(
        out,
        "  speed samples {}  balancer activations {}",
        c.speed_samples, c.balancer_activations
    );
    let _ = writeln!(
        out,
        "  barrier arrivals {}  releases {}",
        c.barrier_arrivals, c.barrier_releases
    );

    if c.freq_steps > 0 {
        let _ = writeln!(out, "  freq steps {}", c.freq_steps);
    }

    if c.proc_faults > 0 || c.quarantines > 0 {
        let _ = write!(
            out,
            "  proc faults {} (retried {})",
            c.proc_faults, c.proc_retries
        );
        for (i, label) in ProcFaultKind::ALL_LABELS.iter().enumerate() {
            if c.proc_faults_by_kind[i] > 0 {
                let _ = write!(out, " {}={}", label, c.proc_faults_by_kind[i]);
            }
        }
        let _ = writeln!(out, "  quarantines {}", c.quarantines);
    }

    if c.request_arrivals > 0 || c.request_drops > 0 {
        let _ = write!(
            out,
            "  requests: arrived {}  dispatched {}  completed {}  dropped {}",
            c.request_arrivals, c.request_dispatches, c.request_completions, c.request_drops
        );
        for (i, label) in RequestDropReason::ALL_LABELS.iter().enumerate() {
            if c.request_drops_by_reason[i] > 0 {
                let _ = write!(out, " {}={}", label, c.request_drops_by_reason[i]);
            }
        }
        let _ = writeln!(out);
        let lat = buf.request_latency_stats();
        if lat.count() > 0 {
            let _ = writeln!(
                out,
                "  request latency (ms): n={} mean={:.3} max={:.3}  queue wait \
                 mean={:.3}",
                lat.count(),
                lat.mean(),
                lat.max(),
                buf.request_wait_stats().mean()
            );
        }
    }

    let _ = writeln!(out, "migrations: {}", c.migrations);
    if c.migrations > 0 {
        let _ = write!(out, "  by tier:");
        for (i, level) in DomainLevel::ALL.iter().enumerate() {
            if c.migrations_by_tier[i] > 0 {
                let _ = write!(out, " {:?}={}", level, c.migrations_by_tier[i]);
            }
        }
        let _ = writeln!(out);
        let _ = write!(out, "  by reason:");
        for (i, label) in MigrationReason::ALL_LABELS.iter().enumerate() {
            if c.migrations_by_reason[i] > 0 {
                let _ = write!(out, " {}={}", label, c.migrations_by_reason[i]);
            }
        }
        let _ = writeln!(out);
    }

    let mut wrote_header = false;
    for core in 0..buf.n_cores() {
        let s = buf.core_speed_stats(CoreId(core));
        if s.count() == 0 {
            continue;
        }
        if !wrote_header {
            let _ = writeln!(out, "core speed (utilization) samples:");
            wrote_header = true;
        }
        let _ = writeln!(
            out,
            "  cpu{core}: n={} mean={:.3} sd={:.3} min={:.3} max={:.3}",
            s.count(),
            s.mean(),
            s.stddev(),
            s.min(),
            s.max()
        );
    }

    wrote_header = false;
    for task in 0..buf.n_tasks() {
        let tis = buf.time_in_state(task);
        let speed = buf.task_speed_stats(task);
        if tis == Default::default() && speed.count() == 0 {
            continue;
        }
        if !wrote_header {
            let _ = writeln!(out, "tasks:");
            wrote_header = true;
        }
        let _ = write!(
            out,
            "  {}: run {} runnable {} blocked {}",
            buf.task_name(task),
            tis.running,
            tis.runnable,
            tis.blocked
        );
        if speed.count() > 0 {
            let _ = write!(
                out,
                "  speed mean={:.3} sd={:.3}",
                speed.mean(),
                speed.stddev()
            );
        }
        let _ = writeln!(out);
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use speedbal_sim::{SimDuration, SimTime};

    #[test]
    fn summary_mentions_key_sections() {
        let mut buf = TraceBuffer::new();
        buf.task_spawned(0, "w0", SimTime::ZERO);
        buf.record(
            SimTime::from_millis(1),
            CoreId(0),
            TraceEvent::Dispatch { task: 0 },
        );
        buf.record(
            SimTime::from_millis(5),
            CoreId(0),
            TraceEvent::Desched {
                task: 0,
                ran: SimDuration::from_millis(4),
            },
        );
        buf.record(
            SimTime::from_millis(5),
            CoreId(0),
            TraceEvent::SpeedSample {
                task: None,
                speed: 0.8,
            },
        );
        let text = render_summary(&buf);
        assert!(text.contains("trace summary"));
        assert!(text.contains("dispatches 1"));
        assert!(text.contains("cpu0:"));
        assert!(text.contains("w0: run 4.000ms"));
    }

    #[test]
    fn faults_render_when_present() {
        use crate::event::{ProcFaultKind, ProcOp};
        let mut buf = TraceBuffer::new();
        buf.record(
            SimTime::from_millis(1),
            CoreId(0),
            TraceEvent::ProcFault {
                task: Some(5),
                op: ProcOp::ReadCpuTime,
                kind: ProcFaultKind::Vanished,
                attempt: 1,
                retrying: false,
            },
        );
        buf.record(
            SimTime::from_millis(2),
            CoreId(0),
            TraceEvent::Quarantined {
                task: 5,
                failures: 3,
            },
        );
        let text = render_summary(&buf);
        assert!(text.contains("proc faults 1"));
        assert!(text.contains("vanished=1"));
        assert!(text.contains("quarantines 1"));
        // And the section is absent on clean traces.
        assert!(!render_summary(&TraceBuffer::new()).contains("proc faults"));
    }

    #[test]
    fn request_section_renders_when_present() {
        use crate::event::RequestDropReason;
        let mut buf = TraceBuffer::new();
        buf.record(
            SimTime::from_millis(1),
            CoreId(0),
            TraceEvent::RequestArrival {
                request: 0,
                arrival: SimTime::from_millis(1),
                queued: 1,
            },
        );
        buf.record(
            SimTime::from_millis(3),
            CoreId(0),
            TraceEvent::RequestComplete {
                request: 0,
                latency: SimDuration::from_millis(2),
            },
        );
        buf.record(
            SimTime::from_millis(4),
            CoreId(0),
            TraceEvent::RequestDrop {
                request: 1,
                reason: RequestDropReason::ShedTimeout,
            },
        );
        let text = render_summary(&buf);
        assert!(text.contains("requests: arrived 1"));
        assert!(text.contains("shed-timeout=1"));
        assert!(text.contains("request latency (ms): n=1"));
        // And the section is absent without server traffic.
        assert!(!render_summary(&TraceBuffer::new()).contains("requests:"));
    }

    #[test]
    fn empty_buffer_renders() {
        let text = render_summary(&TraceBuffer::new());
        assert!(text.contains("migrations: 0"));
    }
}
