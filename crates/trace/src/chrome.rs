//! Chrome trace-event JSON exporter.
//!
//! Produces the `{"traceEvents": [...]}` object format understood by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev). Layout:
//!
//! - pid 1 ("cores"): one thread track per core (`cpu0`, `cpu1`, ...)
//!   carrying `X` complete events for every task occupancy interval,
//!   `i` instant events for wakes/sleeps/preemptions/migrations,
//!   balancer activations and server-request lifecycle points, and `C`
//!   counter tracks for core-level speed samples.
//! - pid 2 ("tasks"): `C` counter tracks for per-task speed samples.
//! - async nestable `b`/`e` spans (pid 1) for barrier episodes, one id
//!   per episode condition, so barrier wait epochs render as horizontal
//!   bars above the core tracks.
//!
//! Timestamps are microseconds with nanosecond precision (three decimal
//! places), matching the trace-event spec's `ts` unit.
//!
//! The exporter **streams**: [`export_chrome_to`] writes each event
//! straight into a buffered writer, so exporting a multi-gigabyte server
//! trace never materializes the whole document in memory, and no event
//! allocates: numbers print from stack buffers and each task name is
//! escaped once per export. [`export_chrome`] collects the same bytes.

use crate::event::TraceEvent;
use crate::sink::TraceBuffer;
use speedbal_sim::SimTime;
use std::collections::HashSet;
use std::fmt::{self, Write as _};
use std::io::{self, Write};
use Val::{Float, Fmt, Int, Micros, Name, Str};

const CORES_PID: u64 = 1;
const TASKS_PID: u64 = 2;

/// Below 2^51 ns, `ns as f64 / 1000.0` lies within 2^-12 µs of `ns / 1000`,
/// far inside the 0.0005 µs that `{:.3}` rounds to, so `{:.3}` prints the
/// exact quotient: `ns / 1000`, `.`, then `ns % 1000` in three digits.
const EXACT_NS: u64 = 1 << 51;

// Event templates: the JSON after an event's head, `@` marking each value.
const PREEMPT: &str = r#","s":"t","name":"preempt @ by @","cat":"sched"}"#;
const SCHED: &str = r#","s":"t","name":"@ @","cat":"sched"}"#;
const MIGRATE: &str = concat!(
    r#","s":"p","name":"migrate @","cat":"migration","#,
    r#""args":{"from":"cpu@","to":"cpu@","tier":"@","reason":"@"}}"#
);
const TASK_SPEED: &str = r#","name":"speed @","args":{"speed":@}}"#;
const CORE_SPEED: &str = r#","name":"speed cpu@","args":{"speed":@}}"#;
const FREQ: &str = r#","name":"freq cpu@","args":{"ratio":@}}"#;
const ACTIVATION: &str = concat!(
    r#","s":"t","name":"@ @","cat":"balancer","#,
    r#""args":{"local":@,"global":@,"jitter_ms":@}}"#
);
const BARRIER_SPAN: &str = r#","id":@,"name":"barrier ep @","cat":"barrier"}"#;
const ARRIVE: &str = r#","s":"t","name":"arrive @ (@/@)","cat":"barrier"}"#;
const FAULT: &str = concat!(
    r#","s":"t","name":"fault @ @","cat":"fault","#,
    r#""args":{"target":"@","kind":"@","attempt":@,"retrying":@}}"#
);
const QUARANTINE: &str = r#","s":"p","name":"quarantine @","cat":"fault","args":{"failures":@}}"#;
const REQ_ARRIVE: &str =
    r#","s":"t","name":"req @ arrive","cat":"request","args":{"arrival_us":@,"queued":@}}"#;
const REQ_SERVE: &str = r#","s":"t","name":"serve req @.@","cat":"request","args":{"wait_ms":@}}"#;
const REQ_DONE: &str = r#","s":"t","name":"req @ done","cat":"request","args":{"latency_ms":@}}"#;
const REQ_DROP: &str = r#","s":"p","name":"drop req @","cat":"request","args":{"reason":"@"}}"#;
/// A whole `M` metadata event naming thread `tid` of process `pid`.
const THREAD_NAME: &str =
    ",\n{\"ph\":\"M\",\"pid\":@,\"tid\":@,\"name\":\"thread_name\",\"args\":{\"name\":\"@\"}}";

/// Escapes a string for embedding in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Writes `n` in decimal from a stack digit buffer.
fn write_int(w: &mut impl Write, mut n: u64) -> io::Result<()> {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return w.write_all(&buf[at..]);
        }
    }
}

/// Writes `ns` nanoseconds as trace-event microseconds, byte-identical to
/// `{:.3}` of `ns as f64 / 1000.0` (which it falls back to from [`EXACT_NS`]).
fn write_micros(w: &mut impl Write, ns: u64) -> io::Result<()> {
    if ns >= EXACT_NS {
        return write!(w, "{:.3}", ns as f64 / 1_000.0);
    }
    write_int(w, ns / 1_000)?;
    let frac = ns % 1_000;
    let digit = |d: u64| b'0' + (d % 10) as u8;
    w.write_all(&[b'.', digit(frac / 100), digit(frac / 10), digit(frac)])
}

/// An index or count as an [`Val::Int`].
fn int(n: usize) -> Val<'static> {
    Int(n as u64)
}

/// A value filling one `@` hole of an event template.
#[derive(Clone, Copy)]
enum Val<'a> {
    /// Text that needs no escaping (a label).
    Str(&'a str),
    Int(u64),
    /// Nanoseconds, written as trace-event microseconds.
    Micros(u64),
    /// `{:.6}`, or `0` when NaN or infinite.
    Float(f64),
    /// A task's escaped name.
    Name(usize),
    /// Anything else `fmt` prints (the migration tier).
    Fmt(fmt::Arguments<'a>),
}

/// The output stream and the names it has escaped so far.
struct Events<'b, W: Write> {
    w: io::BufWriter<W>,
    buf: &'b TraceBuffer,
    /// Escaped task names by id, each filled on first use: the registered
    /// name, else the sink's `t<N>` fallback.
    names: Vec<String>,
}

impl<W: Write> Events<'_, W> {
    fn name(&mut self, t: usize) -> io::Result<()> {
        if self.names.len() <= t {
            self.names.resize(t + 1, String::new());
        }
        if self.names[t].is_empty() {
            self.names[t] = esc(&self.buf.task_name(t));
        }
        self.w.write_all(self.names[t].as_bytes())
    }

    /// Writes `template` with each `@` replaced by the next of `values`.
    fn fill(&mut self, template: &str, values: &[Val]) -> io::Result<()> {
        debug_assert_eq!(template.matches('@').count(), values.len());
        let mut values = values.iter();
        for part in template.split('@') {
            self.w.write_all(part.as_bytes())?;
            match values.next().copied() {
                Some(Str(s)) => self.w.write_all(s.as_bytes())?,
                Some(Int(n)) => write_int(&mut self.w, n)?,
                Some(Micros(ns)) => write_micros(&mut self.w, ns)?,
                Some(Float(x)) if x.is_finite() => write!(self.w, "{x:.6}")?,
                Some(Float(_)) => self.w.write_all(b"0")?,
                Some(Name(t)) => self.name(t)?,
                Some(Fmt(args)) => self.w.write_fmt(args)?,
                None => {}
            }
        }
        Ok(())
    }

    /// Starts the next event object: `"ph"`, `"pid"`, `"tid"` and `"ts"`.
    #[inline(always)]
    fn open(&mut self, ph: &str, pid: u64, tid: usize, at: SimTime) -> io::Result<()> {
        self.w.write_all(b",\n{\"ph\":\"")?;
        self.w.write_all(ph.as_bytes())?;
        self.w.write_all(b"\",\"pid\":")?;
        write_int(&mut self.w, pid)?;
        self.w.write_all(b",\"tid\":")?;
        write_int(&mut self.w, tid as u64)?;
        self.w.write_all(b",\"ts\":")?;
        write_micros(&mut self.w, at.as_nanos())
    }

    /// An `i` instant event on core `at.0`'s track, stamped `at.1`.
    fn instant(&mut self, at: (usize, SimTime), template: &str, values: &[Val]) -> io::Result<()> {
        self.open("i", CORES_PID, at.0, at.1)?;
        self.fill(template, values)
    }

    /// Task `task` on core `core` from `since` to `until`: an `X` event, the
    /// most common one, so it is written without a template.
    fn run(&mut self, core: usize, task: usize, since: SimTime, until: SimTime) -> io::Result<()> {
        self.open("X", CORES_PID, core, since)?;
        self.w.write_all(b",\"dur\":")?;
        write_micros(&mut self.w, until.saturating_since(since).as_nanos())?;
        self.w.write_all(b",\"name\":\"")?;
        self.name(task)?;
        self.w.write_all(b"\",\"cat\":\"run\"}")
    }
}

/// Renders the whole buffer as a Chrome trace-event JSON document,
/// streamed through a buffered chunked writer. The byte stream is
/// identical to what [`export_chrome`] returns.
pub fn export_chrome_to<W: Write>(buf: &TraceBuffer, writer: W) -> io::Result<()> {
    let mut ev = Events {
        w: io::BufWriter::with_capacity(1 << 16, writer),
        buf,
        names: vec![String::new(); buf.n_tasks()],
    };
    // The two process names open every document, so every later event
    // starts with its `,\n` separator.
    ev.w.write_all(
        b"{\"traceEvents\":[\n\
          {\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"cores\"}},\n\
          {\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{\"name\":\"tasks\"}}",
    )?;
    for c in 0..buf.n_cores() {
        ev.fill(
            THREAD_NAME,
            &[Int(CORES_PID), int(c), Fmt(format_args!("cpu{c}"))],
        )?;
    }

    // Open occupancy interval per core: (task, dispatch time).
    let mut open: Vec<Option<(usize, SimTime)>> = vec![None; buf.n_cores()];
    let mut named_task_tracks = HashSet::new();

    for rec in buf.records() {
        let core = rec.core.0;
        let at = (core, rec.time);
        match rec.event {
            TraceEvent::Dispatch { task } => {
                if let Some(slot) = open.get_mut(core) {
                    *slot = Some((task, rec.time));
                }
            }
            TraceEvent::Desched { task, .. } => {
                let slot = open.get_mut(core);
                if let Some((_, since)) = slot.and_then(|s| s.take_if(|(t, _)| *t == task)) {
                    ev.run(core, task, since, rec.time)?;
                }
            }
            TraceEvent::Preempt { task, by } => ev.instant(at, PREEMPT, &[Name(task), Name(by)])?,
            TraceEvent::Wake { task } => ev.instant(at, SCHED, &[Str("wake"), Name(task)])?,
            TraceEvent::Sleep { task } => ev.instant(at, SCHED, &[Str("sleep"), Name(task)])?,
            TraceEvent::Exit { task } => ev.instant(at, SCHED, &[Str("exit"), Name(task)])?,
            TraceEvent::Migrate {
                task,
                from,
                to,
                tier,
                reason,
            } => {
                let values = [
                    Name(task),
                    int(from.0),
                    int(to.0),
                    Fmt(format_args!("{tier:?}")),
                    Str(reason.label()),
                ];
                ev.instant((to.0, rec.time), MIGRATE, &values)?;
            }
            TraceEvent::SpeedSample {
                task: Some(t),
                speed,
            } => {
                if named_task_tracks.insert(t) {
                    ev.fill(THREAD_NAME, &[Int(TASKS_PID), int(t), Name(t)])?;
                }
                ev.open("C", TASKS_PID, t, rec.time)?;
                ev.fill(TASK_SPEED, &[Name(t), Float(speed)])?;
            }
            TraceEvent::SpeedSample { task: None, speed } => {
                ev.open("C", CORES_PID, core, rec.time)?;
                ev.fill(CORE_SPEED, &[int(core), Float(speed)])?;
            }
            TraceEvent::FreqStep { ratio } => {
                ev.open("C", CORES_PID, core, rec.time)?;
                ev.fill(FREQ, &[int(core), Float(ratio)])?;
            }
            TraceEvent::BalancerActivation {
                policy,
                local,
                global,
                outcome,
                jitter,
            } => {
                let values = [
                    Str(policy),
                    Str(outcome.label()),
                    Float(local),
                    Float(global),
                    Float(jitter.as_millis_f64()),
                ];
                ev.instant(at, ACTIVATION, &values)?;
            }
            TraceEvent::BarrierArrive {
                task,
                cond,
                episode,
                arrived,
                parties,
            } => {
                // The first arriver opens the episode span.
                if arrived == 1 {
                    ev.open("b", CORES_PID, core, rec.time)?;
                    ev.fill(BARRIER_SPAN, &[int(cond), Int(episode)])?;
                }
                ev.instant(at, ARRIVE, &[Name(task), int(arrived), int(parties)])?;
            }
            TraceEvent::BarrierRelease { cond, episode, .. } => {
                ev.open("e", CORES_PID, core, rec.time)?;
                ev.fill(BARRIER_SPAN, &[int(cond), Int(episode)])?;
            }
            TraceEvent::ProcFault {
                task,
                op,
                kind,
                attempt,
                retrying,
            } => {
                let values = [
                    Str(op.label()),
                    Str(kind.label()),
                    task.map_or(Str("process"), Name),
                    Str(kind.label()),
                    Int(attempt.into()),
                    Str(if retrying { "true" } else { "false" }),
                ];
                ev.instant(at, FAULT, &values)?;
            }
            TraceEvent::Quarantined { task, failures } => {
                ev.instant(at, QUARANTINE, &[Name(task), Int(failures.into())])?;
            }
            TraceEvent::RequestArrival {
                request,
                arrival,
                queued,
            } => {
                let values = [int(request), Micros(arrival.as_nanos()), int(queued)];
                ev.instant(at, REQ_ARRIVE, &values)?;
            }
            TraceEvent::RequestDispatch {
                request,
                subtask,
                wait,
            } => {
                let values = [int(request), int(subtask), Float(wait.as_millis_f64())];
                ev.instant(at, REQ_SERVE, &values)?;
            }
            TraceEvent::RequestComplete { request, latency } => {
                let values = [int(request), Float(latency.as_millis_f64())];
                ev.instant(at, REQ_DONE, &values)?;
            }
            TraceEvent::RequestDrop { request, reason } => {
                ev.instant(at, REQ_DROP, &[int(request), Str(reason.label())])?;
            }
        }
    }

    // Close any occupancy interval still open at the end of the trace.
    let end = buf.end_time();
    for (c, slot) in open.iter().enumerate() {
        if let Some((task, since)) = *slot {
            ev.run(c, task, since, end)?;
        }
    }

    ev.w.write_all(b"\n]}\n")?;
    ev.w.flush()
}

/// Renders the whole buffer as a Chrome trace-event JSON document in
/// memory. Prefer [`export_chrome_to`] for large traces.
pub fn export_chrome(buf: &TraceBuffer) -> String {
    let mut out = Vec::new();
    export_chrome_to(buf, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("exporter emits UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MigrationReason;
    use speedbal_machine::{CoreId, DomainLevel};
    use speedbal_sim::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn micros_match_f64_formatting() {
        let check = |ns: u64| {
            let mut out = Vec::new();
            write_micros(&mut out, ns).unwrap();
            let want = format!("{:.3}", ns as f64 / 1_000.0);
            assert_eq!(String::from_utf8(out).unwrap(), want, "{ns} ns");
        };
        for ns in [0, 999, 1_000, EXACT_NS - 1, EXACT_NS, u64::MAX] {
            check(ns);
        }
        // Seeded values below 2^51 ns, spread over every magnitude.
        let mut rng = speedbal_sim::SimRng::new(0x7ACE);
        for _ in 0..100_000 {
            check(rng.next_u64() >> (13 + rng.next_below(51)));
        }
    }

    #[test]
    fn integers_print_in_decimal() {
        for n in [0, 7, 10, 999_999, u64::MAX] {
            let mut out = Vec::new();
            write_int(&mut out, n).unwrap();
            assert_eq!(String::from_utf8(out).unwrap(), n.to_string());
        }
    }

    #[test]
    fn escapes_json_strings() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }

    #[test]
    fn emits_complete_events_for_occupancy() {
        let mut buf = TraceBuffer::new();
        buf.task_spawned(0, "w0", SimTime::ZERO);
        buf.record(t(10), CoreId(0), TraceEvent::Dispatch { task: 0 });
        buf.record(
            t(35),
            CoreId(0),
            TraceEvent::Desched {
                task: 0,
                ran: SimDuration::from_micros(25),
            },
        );
        buf.flush();
        let json = export_chrome(&buf);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":10.000"));
        assert!(json.contains("\"dur\":25.000"));
        assert!(json.contains("\"name\":\"w0\""));
    }

    #[test]
    fn closes_trailing_open_interval() {
        let mut buf = TraceBuffer::new();
        buf.task_spawned(0, "w0", SimTime::ZERO);
        buf.record(t(5), CoreId(0), TraceEvent::Dispatch { task: 0 });
        buf.record(t(50), CoreId(1), TraceEvent::Wake { task: 1 });
        buf.flush();
        let json = export_chrome(&buf);
        assert!(
            json.contains("\"dur\":45.000"),
            "open interval closed at end"
        );
    }

    #[test]
    fn migration_event_carries_reason() {
        let mut buf = TraceBuffer::new();
        buf.record(
            t(7),
            CoreId(1),
            TraceEvent::Migrate {
                task: 3,
                from: CoreId(0),
                to: CoreId(1),
                tier: DomainLevel::Cache,
                reason: MigrationReason::SpeedPull {
                    local_speed: 1.0,
                    remote_speed: 0.5,
                    global_speed: 0.7,
                },
            },
        );
        buf.flush();
        let json = export_chrome(&buf);
        assert!(json.contains("\"cat\":\"migration\""));
        assert!(json.contains("\"reason\":\"speed-pull\""));
    }

    #[test]
    fn barrier_spans_pair_up() {
        let mut buf = TraceBuffer::new();
        buf.record(
            t(1),
            CoreId(0),
            TraceEvent::BarrierArrive {
                task: 0,
                cond: 9,
                episode: 0,
                arrived: 1,
                parties: 2,
            },
        );
        buf.record(
            t(4),
            CoreId(1),
            TraceEvent::BarrierRelease {
                task: 1,
                cond: 9,
                episode: 0,
            },
        );
        buf.flush();
        let json = export_chrome(&buf);
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"ph\":\"e\""));
        assert!(json.contains("\"id\":9"));
    }

    #[test]
    fn fault_events_export() {
        use crate::event::{ProcFaultKind, ProcOp};
        let mut buf = TraceBuffer::new();
        buf.task_spawned(3, "tid103", SimTime::ZERO);
        buf.record(
            t(5),
            CoreId(1),
            TraceEvent::ProcFault {
                task: Some(3),
                op: ProcOp::SetAffinity,
                kind: ProcFaultKind::PermissionDenied,
                attempt: 2,
                retrying: false,
            },
        );
        buf.record(
            t(9),
            CoreId(1),
            TraceEvent::Quarantined {
                task: 3,
                failures: 3,
            },
        );
        buf.flush();
        let json = export_chrome(&buf);
        assert!(json.contains("\"cat\":\"fault\""));
        assert!(json.contains("fault set-affinity eperm"));
        assert!(json.contains("\"attempt\":2"));
        assert!(json.contains("quarantine tid103"));
    }

    #[test]
    fn request_events_export() {
        use crate::event::RequestDropReason;
        let mut buf = TraceBuffer::new();
        buf.record(
            t(10),
            CoreId(0),
            TraceEvent::RequestArrival {
                request: 7,
                arrival: t(8),
                queued: 3,
            },
        );
        buf.record(
            t(12),
            CoreId(1),
            TraceEvent::RequestDispatch {
                request: 7,
                subtask: 1,
                wait: SimDuration::from_micros(4000),
            },
        );
        buf.record(
            t(20),
            CoreId(1),
            TraceEvent::RequestComplete {
                request: 7,
                latency: SimDuration::from_micros(12_000),
            },
        );
        buf.record(
            t(21),
            CoreId(0),
            TraceEvent::RequestDrop {
                request: 8,
                reason: RequestDropReason::QueueFull,
            },
        );
        buf.flush();
        let json = export_chrome(&buf);
        assert!(json.contains("\"cat\":\"request\""));
        assert!(json.contains("req 7 arrive"));
        assert!(json.contains("serve req 7.1"));
        assert!(json.contains("req 7 done"));
        assert!(json.contains("\"latency_ms\":12.000000"));
        assert!(json.contains("drop req 8"));
        assert!(json.contains("\"reason\":\"queue-full\""));
    }

    #[test]
    fn document_shape_is_wellformed() {
        let buf = TraceBuffer::new();
        let json = export_chrome(&buf);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn streaming_writer_matches_string_export() {
        let mut buf = TraceBuffer::new();
        buf.task_spawned(0, "w0", SimTime::ZERO);
        buf.record(t(1), CoreId(0), TraceEvent::Dispatch { task: 0 });
        buf.record(
            t(9),
            CoreId(0),
            TraceEvent::Desched {
                task: 0,
                ran: SimDuration::from_micros(8),
            },
        );
        buf.flush();
        let mut streamed = Vec::new();
        export_chrome_to(&buf, &mut streamed).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), export_chrome(&buf));
    }
}
