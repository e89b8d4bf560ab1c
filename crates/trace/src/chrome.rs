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
//! The exporter **streams**: [`export_chrome_to`] writes each event into
//! one owned output buffer by index and hands the sink one `write_all` per
//! 64 KiB, so exporting a multi-gigabyte server trace never materializes
//! the whole document in memory, and no event allocates. Literal
//! fragments go in as fixed-size copies, integers and timestamps digit
//! pair by digit pair straight at the cursor, and each task name is
//! escaped once per export. [`export_chrome`] collects the same bytes.

use crate::event::TraceEvent;
use crate::sink::TraceBuffer;
use speedbal_sim::SimTime;
use std::fmt::Write as _;
use std::io::{self, Write};

/// Below 2^51 ns, `ns as f64 / 1000.0` lies within 2^-12 µs of `ns / 1000`,
/// far inside the 0.0005 µs that `{:.3}` rounds to, so `{:.3}` prints the
/// exact quotient: `ns / 1000`, `.`, then `ns % 1000` in three digits.
const EXACT_NS: u64 = 1 << 51;

/// Buffered bytes the sink is handed in one `write_all`.
const CHUNK: usize = 1 << 16;
/// Free bytes past the cursor at the start of every event and after every
/// variable-length piece: more than the fixed-width pieces (literals,
/// integers, exact timestamps) any event writes between two such points.
const SLACK: usize = 512;

/// The two ASCII digits of every value below 100, at twice the value.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// `,\n{"ph":"<ph>","pid":<pid>,"tid":`, the opening of every event but
/// the two process names.
type Head = [u8; 26];

const fn head(ph: u8, pid: u8) -> Head {
    let mut h = *b",\n{\"ph\":\"?\",\"pid\":?,\"tid\":";
    h[9] = ph;
    h[18] = pid;
    h
}

const CORES_PID: u8 = b'1';
const TASKS_PID: u8 = b'2';
const RUN: Head = head(b'X', CORES_PID);
const INSTANT: Head = head(b'i', CORES_PID);
const CORE_COUNTER: Head = head(b'C', CORES_PID);
const TASK_COUNTER: Head = head(b'C', TASKS_PID);
const SPAN_BEGIN: Head = head(b'b', CORES_PID);
const SPAN_END: Head = head(b'e', CORES_PID);
const CORE_TRACK: Head = head(b'M', CORES_PID);
const TASK_TRACK: Head = head(b'M', TASKS_PID);

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

/// The output buffer, written by index at `at` and handed to the sink a
/// chunk at a time.
struct Out<W: Write> {
    buf: Box<[u8]>,
    at: usize,
    sink: W,
}

impl<W: Write> Out<W> {
    fn new(sink: W) -> Self {
        Out {
            buf: vec![0; CHUNK + SLACK].into_boxed_slice(),
            at: 0,
            sink,
        }
    }

    /// Hands the buffered bytes to the sink.
    fn drain(&mut self) -> io::Result<()> {
        self.sink.write_all(&self.buf[..self.at])?;
        self.at = 0;
        Ok(())
    }

    /// Starts an event: drains a full chunk, so at least [`SLACK`] bytes
    /// are free.
    #[inline]
    fn room(&mut self) -> io::Result<()> {
        if self.at >= CHUNK {
            self.drain()?;
        }
        Ok(())
    }

    /// A literal fragment, as one fixed-size copy.
    #[inline(always)]
    fn lit<const N: usize>(&mut self, s: &[u8; N]) {
        self.buf[self.at..self.at + N].copy_from_slice(s);
        self.at += N;
    }

    /// A variable-length piece (a name, a label, formatted digits). It
    /// leaves [`SLACK`] bytes free: the buffer spills to the sink first if
    /// it must, and a piece longer than a chunk goes to the sink directly.
    fn bytes(&mut self, s: &[u8]) -> io::Result<()> {
        if self.at + s.len() + SLACK > self.buf.len() {
            self.drain()?;
            if s.len() > CHUNK {
                return self.sink.write_all(s);
            }
        }
        self.buf[self.at..self.at + s.len()].copy_from_slice(s);
        self.at += s.len();
        Ok(())
    }

    /// `n` in decimal, written back to front two digits at a time.
    #[inline]
    fn int(&mut self, mut n: u64) {
        let len = n.checked_ilog10().map_or(1, |d| d as usize + 1);
        let digits = &mut self.buf[self.at..self.at + len];
        let mut i = len;
        while n >= 100 {
            let pair = (n % 100) as usize * 2;
            n /= 100;
            i -= 2;
            digits[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if n >= 10 {
            let pair = n as usize * 2;
            digits[..2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            digits[0] = b'0' + n as u8;
        }
        self.at += len;
    }

    /// `ns` nanoseconds as trace-event microseconds, byte-identical to
    /// `{:.3}` of `ns as f64 / 1000.0` (which it falls back to from
    /// [`EXACT_NS`]).
    #[inline]
    fn micros(&mut self, ns: u64) -> io::Result<()> {
        if ns >= EXACT_NS {
            return write!(self, "{:.3}", ns as f64 / 1_000.0);
        }
        self.int(ns / 1_000);
        let frac = (ns % 1_000) as usize;
        let pair = frac % 100 * 2;
        let hundreds = b'0' + (frac / 100) as u8;
        self.lit(&[b'.', hundreds, DIGIT_PAIRS[pair], DIGIT_PAIRS[pair + 1]]);
        Ok(())
    }

    /// `{:.6}` of `x`, or `0` when NaN or infinite.
    fn float(&mut self, x: f64) -> io::Result<()> {
        if x.is_finite() {
            write!(self, "{x:.6}")
        } else {
            self.lit(b"0");
            Ok(())
        }
    }

    /// Hands the sink the last bytes and flushes it.
    fn finish(mut self) -> io::Result<()> {
        self.drain()?;
        self.sink.flush()
    }
}

/// The formatted fallbacks (`{:.3}`, `{:.6}`, the migration tier) write
/// through [`Out::bytes`].
impl<W: Write> Write for Out<W> {
    fn write(&mut self, s: &[u8]) -> io::Result<usize> {
        self.bytes(s)?;
        Ok(s.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The output and the task names it has escaped so far.
struct Events<'b, W: Write> {
    out: Out<W>,
    buf: &'b TraceBuffer,
    /// Escaped task names by id, each filled on first use: the registered
    /// name, else the sink's `t<N>` fallback.
    names: Vec<Vec<u8>>,
}

impl<W: Write> Events<'_, W> {
    fn name(&mut self, t: usize) -> io::Result<()> {
        if self.names.len() <= t {
            self.names.resize(t + 1, Vec::new());
        }
        if self.names[t].is_empty() {
            self.names[t] = esc(&self.buf.task_name(t)).into_bytes();
        }
        self.out.bytes(&self.names[t])
    }

    /// Starts the next event object: `head`, then `"tid"` and `"ts"`.
    #[inline(always)]
    fn open(&mut self, head: &Head, tid: usize, at: SimTime) -> io::Result<()> {
        self.out.room()?;
        self.out.lit(head);
        self.out.int(tid as u64);
        self.out.lit(br#","ts":"#);
        self.out.micros(at.as_nanos())
    }

    /// Starts an `M` event naming track `tid`, up to the name's text.
    fn track(&mut self, head: &Head, tid: usize) -> io::Result<()> {
        self.out.room()?;
        self.out.lit(head);
        self.out.int(tid as u64);
        self.out.lit(br#","name":"thread_name","args":{"name":""#);
        Ok(())
    }

    /// Task `task` on core `core` from `since` to `until`: an `X` event,
    /// the most common one.
    fn run(&mut self, core: usize, task: usize, since: SimTime, until: SimTime) -> io::Result<()> {
        self.open(&RUN, core, since)?;
        self.out.lit(br#","dur":"#);
        self.out.micros(until.saturating_since(since).as_nanos())?;
        self.out.lit(br#","name":""#);
        self.name(task)?;
        self.out.lit(br#"","cat":"run"}"#);
        Ok(())
    }

    /// An `i` instant on core `at.0`'s track, stamped `at.1`, up to the
    /// end of `lead`.
    fn instant<const N: usize>(&mut self, at: (usize, SimTime), lead: &[u8; N]) -> io::Result<()> {
        self.open(&INSTANT, at.0, at.1)?;
        self.out.lit(lead);
        Ok(())
    }

    /// A `sched`-category instant: `what`, with its trailing space, then
    /// the task's name.
    fn sched<const N: usize>(
        &mut self,
        at: (usize, SimTime),
        what: &[u8; N],
        task: usize,
    ) -> io::Result<()> {
        self.instant(at, br#","s":"t","name":""#)?;
        self.out.lit(what);
        self.name(task)?;
        self.out.lit(br#"","cat":"sched"}"#);
        Ok(())
    }

    /// A barrier episode's `b` or `e` span event.
    fn span(
        &mut self,
        head: &Head,
        at: (usize, SimTime),
        cond: usize,
        episode: u64,
    ) -> io::Result<()> {
        self.open(head, at.0, at.1)?;
        self.out.lit(br#","id":"#);
        self.out.int(cond as u64);
        self.out.lit(br#","name":"barrier ep "#);
        self.out.int(episode);
        self.out.lit(br#"","cat":"barrier"}"#);
        Ok(())
    }
}

/// Renders the whole buffer as a Chrome trace-event JSON document,
/// streamed to `writer` a chunk at a time. The byte stream is identical
/// to what [`export_chrome`] returns.
pub fn export_chrome_to<W: Write>(buf: &TraceBuffer, writer: W) -> io::Result<()> {
    let mut ev = Events {
        out: Out::new(writer),
        buf,
        names: vec![Vec::new(); buf.n_tasks()],
    };
    // The two process names open every document, so every later event
    // starts with its `,\n` separator.
    ev.out.bytes(
        b"{\"traceEvents\":[\n\
          {\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"cores\"}},\n\
          {\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{\"name\":\"tasks\"}}",
    )?;
    for c in 0..buf.n_cores() {
        ev.track(&CORE_TRACK, c)?;
        ev.out.lit(b"cpu");
        ev.out.int(c as u64);
        ev.out.lit(br#""}}"#);
    }

    // Open occupancy interval per core: (task, dispatch time).
    let mut open: Vec<Option<(usize, SimTime)>> = vec![None; buf.n_cores()];
    // Tasks whose speed counter track has been named.
    let mut named: Vec<bool> = vec![false; buf.n_tasks()];

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
            TraceEvent::Preempt { task, by } => {
                ev.instant(at, br#","s":"t","name":"preempt "#)?;
                ev.name(task)?;
                ev.out.lit(b" by ");
                ev.name(by)?;
                ev.out.lit(br#"","cat":"sched"}"#);
            }
            TraceEvent::Wake { task } => ev.sched(at, b"wake ", task)?,
            TraceEvent::Sleep { task } => ev.sched(at, b"sleep ", task)?,
            TraceEvent::Exit { task } => ev.sched(at, b"exit ", task)?,
            TraceEvent::Migrate {
                task,
                from,
                to,
                tier,
                reason,
            } => {
                ev.instant((to.0, rec.time), br#","s":"p","name":"migrate "#)?;
                ev.name(task)?;
                ev.out.lit(br#"","cat":"migration","args":{"from":"cpu"#);
                ev.out.int(from.0 as u64);
                ev.out.lit(br#"","to":"cpu"#);
                ev.out.int(to.0 as u64);
                ev.out.lit(br#"","tier":""#);
                write!(ev.out, "{tier:?}")?;
                ev.out.lit(br#"","reason":""#);
                ev.out.bytes(reason.label().as_bytes())?;
                ev.out.lit(br#""}}"#);
            }
            TraceEvent::SpeedSample {
                task: Some(t),
                speed,
            } => {
                if named.len() <= t {
                    named.resize(t + 1, false);
                }
                if !std::mem::replace(&mut named[t], true) {
                    ev.track(&TASK_TRACK, t)?;
                    ev.name(t)?;
                    ev.out.lit(br#""}}"#);
                }
                ev.open(&TASK_COUNTER, t, rec.time)?;
                ev.out.lit(br#","name":"speed "#);
                ev.name(t)?;
                ev.out.lit(br#"","args":{"speed":"#);
                ev.out.float(speed)?;
                ev.out.lit(b"}}");
            }
            TraceEvent::SpeedSample { task: None, speed } => {
                ev.open(&CORE_COUNTER, core, rec.time)?;
                ev.out.lit(br#","name":"speed cpu"#);
                ev.out.int(core as u64);
                ev.out.lit(br#"","args":{"speed":"#);
                ev.out.float(speed)?;
                ev.out.lit(b"}}");
            }
            TraceEvent::FreqStep { ratio } => {
                ev.open(&CORE_COUNTER, core, rec.time)?;
                ev.out.lit(br#","name":"freq cpu"#);
                ev.out.int(core as u64);
                ev.out.lit(br#"","args":{"ratio":"#);
                ev.out.float(ratio)?;
                ev.out.lit(b"}}");
            }
            TraceEvent::BalancerActivation {
                policy,
                local,
                global,
                outcome,
                jitter,
            } => {
                ev.instant(at, br#","s":"t","name":""#)?;
                ev.out.bytes(policy.as_bytes())?;
                ev.out.lit(b" ");
                ev.out.bytes(outcome.label().as_bytes())?;
                ev.out.lit(br#"","cat":"balancer","args":{"local":"#);
                ev.out.float(local)?;
                ev.out.lit(br#","global":"#);
                ev.out.float(global)?;
                ev.out.lit(br#","jitter_ms":"#);
                ev.out.float(jitter.as_millis_f64())?;
                ev.out.lit(b"}}");
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
                    ev.span(&SPAN_BEGIN, at, cond, episode)?;
                }
                ev.instant(at, br#","s":"t","name":"arrive "#)?;
                ev.name(task)?;
                ev.out.lit(b" (");
                ev.out.int(arrived as u64);
                ev.out.lit(b"/");
                ev.out.int(parties as u64);
                ev.out.lit(br#")","cat":"barrier"}"#);
            }
            TraceEvent::BarrierRelease { cond, episode, .. } => {
                ev.span(&SPAN_END, at, cond, episode)?;
            }
            TraceEvent::ProcFault {
                task,
                op,
                kind,
                attempt,
                retrying,
            } => {
                ev.instant(at, br#","s":"t","name":"fault "#)?;
                ev.out.bytes(op.label().as_bytes())?;
                ev.out.lit(b" ");
                ev.out.bytes(kind.label().as_bytes())?;
                ev.out.lit(br#"","cat":"fault","args":{"target":""#);
                match task {
                    Some(t) => ev.name(t)?,
                    None => ev.out.lit(b"process"),
                }
                ev.out.lit(br#"","kind":""#);
                ev.out.bytes(kind.label().as_bytes())?;
                ev.out.lit(br#"","attempt":"#);
                ev.out.int(attempt.into());
                ev.out.lit(br#","retrying":"#);
                ev.out.bytes(if retrying { b"true" } else { b"false" })?;
                ev.out.lit(b"}}");
            }
            TraceEvent::Quarantined { task, failures } => {
                ev.instant(at, br#","s":"p","name":"quarantine "#)?;
                ev.name(task)?;
                ev.out.lit(br#"","cat":"fault","args":{"failures":"#);
                ev.out.int(failures.into());
                ev.out.lit(b"}}");
            }
            TraceEvent::RequestArrival {
                request,
                arrival,
                queued,
            } => {
                ev.instant(at, br#","s":"t","name":"req "#)?;
                ev.out.int(request as u64);
                ev.out
                    .lit(br#" arrive","cat":"request","args":{"arrival_us":"#);
                ev.out.micros(arrival.as_nanos())?;
                ev.out.lit(br#","queued":"#);
                ev.out.int(queued as u64);
                ev.out.lit(b"}}");
            }
            TraceEvent::RequestDispatch {
                request,
                subtask,
                wait,
            } => {
                ev.instant(at, br#","s":"t","name":"serve req "#)?;
                ev.out.int(request as u64);
                ev.out.lit(b".");
                ev.out.int(subtask as u64);
                ev.out.lit(br#"","cat":"request","args":{"wait_ms":"#);
                ev.out.float(wait.as_millis_f64())?;
                ev.out.lit(b"}}");
            }
            TraceEvent::RequestComplete { request, latency } => {
                ev.instant(at, br#","s":"t","name":"req "#)?;
                ev.out.int(request as u64);
                ev.out
                    .lit(br#" done","cat":"request","args":{"latency_ms":"#);
                ev.out.float(latency.as_millis_f64())?;
                ev.out.lit(b"}}");
            }
            TraceEvent::RequestDrop { request, reason } => {
                ev.instant(at, br#","s":"p","name":"drop req "#)?;
                ev.out.int(request as u64);
                ev.out.lit(br#"","cat":"request","args":{"reason":""#);
                ev.out.bytes(reason.label().as_bytes())?;
                ev.out.lit(br#""}}"#);
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

    ev.out.room()?;
    ev.out.lit(b"\n]}\n");
    ev.out.finish()
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

    /// Each value written by `write` through an [`Out`], one per event,
    /// space-separated, against `want` of the same value.
    fn check_each(values: &[u64], write: fn(&mut Out<&mut Vec<u8>>, u64), want: fn(u64) -> String) {
        let mut bytes = Vec::new();
        let mut out = Out::new(&mut bytes);
        for &v in values {
            out.room().unwrap();
            write(&mut out, v);
            out.lit(b" ");
        }
        out.finish().unwrap();
        let got = String::from_utf8(bytes).unwrap();
        let got: Vec<&str> = got.split_terminator(' ').collect();
        assert_eq!(got.len(), values.len());
        for (&v, got) in values.iter().zip(got) {
            assert_eq!(got, want(v), "{v}");
        }
    }

    #[test]
    fn micros_match_f64_formatting() {
        let mut values = vec![0, 1, 999, 1_000, 1_001, 99_999, EXACT_NS - 1, EXACT_NS];
        values.push(u64::MAX);
        // Seeded values below 2^51 ns, spread over every magnitude.
        let mut rng = speedbal_sim::SimRng::new(0x7ACE);
        values.extend((0..100_000).map(|_| rng.next_u64() >> (13 + rng.next_below(51))));
        check_each(
            &values,
            |out, ns| out.micros(ns).unwrap(),
            |ns| format!("{:.3}", ns as f64 / 1_000.0),
        );
    }

    #[test]
    fn integers_print_in_decimal() {
        // Every digit count from 1 to 20, at both of its ends.
        let mut values = vec![0, 7, u64::MAX];
        for k in 1..20 {
            values.extend([10u64.pow(k) - 1, 10u64.pow(k)]);
        }
        check_each(&values, |out, n| out.int(n), |n| n.to_string());
    }

    /// Records each write the sink gets.
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, b: &[u8]) -> io::Result<usize> {
            self.0.push(b.to_vec());
            Ok(b.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn names_longer_than_the_slack_spill_whole_and_in_order() {
        // A name past the slack lands at every offset near a chunk's end,
        // and one past a whole chunk goes to the sink directly.
        for len in [SLACK + 77, CHUNK + 5] {
            let long = "n".repeat(len);
            let mut buf = TraceBuffer::new();
            buf.task_spawned(0, &long, SimTime::ZERO);
            let wakes = 3 * CHUNK / len + 3;
            let mut want = String::from(
                "{\"traceEvents\":[\n\
                 {\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"cores\"}},\n\
                 {\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{\"name\":\"tasks\"}}",
            );
            want += ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"cpu0\"}}";
            for i in 0..wakes as u64 {
                buf.record(t(i), CoreId(0), TraceEvent::Wake { task: 0 });
                want += &format!(
                    ",\n{{\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":{i}.000,\
                     \"s\":\"t\",\"name\":\"wake {long}\",\"cat\":\"sched\"}}"
                );
            }
            want += "\n]}\n";
            let mut sink = Writes(Vec::new());
            export_chrome_to(&buf, &mut sink).unwrap();
            assert_eq!(String::from_utf8(sink.0.concat()).unwrap(), want, "{len}");
            if len < CHUNK {
                // One write per chunk, cut short only by the name that
                // spilled it.
                let sizes: Vec<usize> = sink.0.iter().map(Vec::len).collect();
                let (_, full) = sizes.split_last().unwrap();
                assert!(
                    full.iter()
                        .all(|n| (CHUNK - len - SLACK..CHUNK + SLACK).contains(n)),
                    "{sizes:?}"
                );
            }
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
        let mut streamed = Vec::new();
        export_chrome_to(&buf, &mut streamed).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), export_chrome(&buf));
    }
}
