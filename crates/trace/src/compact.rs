//! Compact on-ring encoding of trace records.
//!
//! The retained-record ring is the trace sink's bandwidth hot spot: an
//! in-memory [`TraceRecord`] is ~80 bytes (the `Migrate` and
//! `BalancerActivation` variants dominate the enum layout), so a traced
//! run streams tens of megabytes through the ring even at modest scales,
//! and that memory traffic — not the aggregate bookkeeping — is most of
//! the traced-vs-untraced overhead. This module encodes each record into
//! a handful of bytes instead: a one-byte event tag, a zigzag-varint
//! *delta* timestamp (simulation time is effectively monotone, so deltas
//! are tiny), a varint core id, and varint/raw-bit payload fields. The
//! common `Dispatch`/`Desched` records shrink from ~80 bytes to 4–10.
//!
//! The encoding is exact: every integer round-trips at full width (LEB128
//! varints), floats are stored as raw `to_bits` little-endian bytes (NaN
//! payloads survive), and timestamps use wrapping zigzag deltas so even
//! non-monotone or extreme inputs decode to the original value.
//! `BalancerActivation`'s `&'static str` policy label is interned into a
//! small side table and referenced by varint id.

use crate::event::{
    ActivationOutcome, MigrationReason, ProcFaultKind, ProcOp, RequestDropReason, TraceEvent,
    TraceRecord,
};
use speedbal_machine::{CoreId, DomainLevel};
use speedbal_sim::{SimDuration, SimTime};

/// Decode tables for the payload-free enums (kept in `index()` order
/// where the enum defines one).
const OUTCOMES: [ActivationOutcome; 5] = [
    ActivationOutcome::BelowAverage,
    ActivationOutcome::Blocked,
    ActivationOutcome::NoCandidate,
    ActivationOutcome::Pulled,
    ActivationOutcome::Balanced,
];
const PROC_OPS: [ProcOp; 3] = [
    ProcOp::ListThreads,
    ProcOp::ReadCpuTime,
    ProcOp::SetAffinity,
];
const FAULT_KINDS: [ProcFaultKind; 4] = [
    ProcFaultKind::Vanished,
    ProcFaultKind::PermissionDenied,
    ProcFaultKind::Malformed,
    ProcFaultKind::Io,
];
const DROP_REASONS: [RequestDropReason; 2] =
    [RequestDropReason::QueueFull, RequestDropReason::ShedTimeout];

/// Room for the longest encoding of one record: a `Migrate` with a
/// `SpeedPull` reason takes a tag, five maximal varints (time delta, core,
/// task, from, to: 10 bytes each), one-byte tier and reason indices and
/// three raw floats, 77 bytes.
const MAX_RECORD: usize = 96;
/// Tags of the two context-switch records, which [`Ring::push_switch`]
/// writes without going through [`encode`].
const DISPATCH: u8 = 0;
const DESCHED: u8 = 1;
/// Bytes the ring's writable room grows by once fewer than [`MAX_RECORD`]
/// remain past the tail: a few hundred records per growth, and at most
/// this much memory touched ahead of the encoded bytes.
const GROW: usize = 4096;

/// The retained records, varint-encoded oldest-first, with the intern
/// table their `BalancerActivation` policy labels refer to.
#[derive(Debug, Clone, Default)]
pub(crate) struct Ring {
    /// `bytes[head..tail]` holds `count` records; `bytes[tail..]` is room
    /// [`Ring::push`] encodes straight into, never copying a record. The
    /// dead prefix is compacted away once it outweighs the live bytes.
    bytes: Vec<u8>,
    head: usize,
    tail: usize,
    count: usize,
    /// Timestamp base (ns) for decoding the record at `head`.
    head_ns: u64,
    /// Timestamp (ns) of the newest record: the delta base of the next.
    tail_ns: u64,
    /// Interned `BalancerActivation` policy labels, by varint id.
    policies: Vec<&'static str>,
}

impl Ring {
    /// Number of retained records.
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// Appends one record, encoded in place past the tail.
    pub(crate) fn push(&mut self, time: SimTime, core: CoreId, event: &TraceEvent) {
        if self.bytes.len() < self.tail + MAX_RECORD {
            self.bytes.resize(self.tail + MAX_RECORD + GROW, 0);
        }
        let room = self.bytes[self.tail..]
            .first_chunk_mut::<MAX_RECORD>()
            .expect("room for the longest record was made above");
        let mut w = Writer { buf: room, n: 0 };
        encode(&mut w, self.tail_ns, time, core, event, &mut self.policies);
        self.tail += w.n;
        self.tail_ns = time.as_nanos();
        self.count += 1;
    }

    /// Appends `Desched { task: out, ran }` then `Dispatch { task: into }`,
    /// both at `time` on `core`: the bytes two [`Ring::push`] calls write,
    /// with one room check and no dispatch on the event's variant.
    pub(crate) fn push_switch(
        &mut self,
        time: SimTime,
        core: CoreId,
        out: usize,
        ran: SimDuration,
        into: usize,
    ) {
        if self.bytes.len() < self.tail + MAX_RECORD {
            self.bytes.resize(self.tail + MAX_RECORD + GROW, 0);
        }
        let room = self.bytes[self.tail..]
            .first_chunk_mut::<MAX_RECORD>()
            .expect("room for the longest record was made above");
        // At most 41 + 22 bytes: both records fit one record's room.
        let mut w = Writer { buf: room, n: 0 };
        w.u8(DESCHED);
        w.i64(time.as_nanos().wrapping_sub(self.tail_ns) as i64);
        w.u64(core.0 as u64);
        w.u64(out as u64);
        w.u64(ran.as_nanos());
        w.u8(DISPATCH);
        w.i64(0);
        w.u64(core.0 as u64);
        w.u64(into as u64);
        self.tail += w.n;
        self.tail_ns = time.as_nanos();
        self.count += 2;
    }

    /// Drops the oldest record (no-op on an empty ring), sliding the
    /// encoded bytes left once the dead prefix outweighs the live ones so
    /// the buffer stays bounded without per-eviction copying.
    pub(crate) fn pop_front(&mut self) {
        let mut oldest = self.records();
        if oldest.next().is_none() {
            return;
        }
        (self.head, self.head_ns) = (oldest.pos, oldest.time_ns);
        self.count -= 1;
        if self.head >= 1 << 16 && self.head >= self.tail - self.head {
            self.bytes.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
    }

    /// The retained records, oldest first.
    pub(crate) fn records(&self) -> Records<'_> {
        Records {
            bytes: &self.bytes[..self.tail],
            policies: &self.policies,
            pos: self.head,
            time_ns: self.head_ns,
            remaining: self.count,
        }
    }
}

/// One record's bytes being written at the ring's tail.
struct Writer<'a> {
    buf: &'a mut [u8; MAX_RECORD],
    n: usize,
}

impl Writer<'_> {
    #[inline]
    fn u8(&mut self, b: u8) {
        self.buf[self.n] = b;
        self.n += 1;
    }

    #[inline]
    fn u64(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.u8((v as u8) | 0x80);
            v >>= 7;
        }
        self.u8(v as u8);
    }

    #[inline]
    fn i64(&mut self, v: i64) {
        self.u64(((v << 1) ^ (v >> 63)) as u64);
    }

    #[inline]
    fn f64(&mut self, v: f64) {
        self.buf[self.n..self.n + 8].copy_from_slice(&v.to_bits().to_le_bytes());
        self.n += 8;
    }

    /// `Option<usize>` as one varint: 0 = `None`, `t + 1` = `Some(t)`.
    #[inline]
    fn opt(&mut self, v: Option<usize>) {
        self.u64(v.map_or(0, |t| t as u64 + 1));
    }
}

fn tier_index(level: DomainLevel) -> u64 {
    DomainLevel::ALL
        .iter()
        .position(|l| *l == level)
        .expect("DomainLevel::ALL is exhaustive") as u64
}

/// Writes one record. `prev_ns` is the timestamp of the previously
/// encoded record (0 before the first); `policies` is the intern table
/// for `BalancerActivation` labels.
fn encode(
    w: &mut Writer,
    prev_ns: u64,
    time: SimTime,
    core: CoreId,
    event: &TraceEvent,
    policies: &mut Vec<&'static str>,
) {
    let tag: u8 = match event {
        TraceEvent::Dispatch { .. } => DISPATCH,
        TraceEvent::Desched { .. } => DESCHED,
        TraceEvent::Preempt { .. } => 2,
        TraceEvent::Wake { .. } => 3,
        TraceEvent::Sleep { .. } => 4,
        TraceEvent::Exit { .. } => 5,
        TraceEvent::Migrate { .. } => 6,
        TraceEvent::SpeedSample { .. } => 7,
        TraceEvent::BalancerActivation { .. } => 8,
        TraceEvent::BarrierArrive { .. } => 9,
        TraceEvent::BarrierRelease { .. } => 10,
        TraceEvent::ProcFault { .. } => 11,
        TraceEvent::RequestArrival { .. } => 12,
        TraceEvent::RequestDispatch { .. } => 13,
        TraceEvent::RequestComplete { .. } => 14,
        TraceEvent::RequestDrop { .. } => 15,
        TraceEvent::Quarantined { .. } => 16,
        TraceEvent::FreqStep { .. } => 17,
    };
    w.u8(tag);
    w.i64(time.as_nanos().wrapping_sub(prev_ns) as i64);
    w.u64(core.0 as u64);
    match event {
        TraceEvent::Dispatch { task }
        | TraceEvent::Wake { task }
        | TraceEvent::Sleep { task }
        | TraceEvent::Exit { task } => w.u64(*task as u64),
        TraceEvent::Desched { task, ran } => {
            w.u64(*task as u64);
            w.u64(ran.as_nanos());
        }
        TraceEvent::Preempt { task, by } => {
            w.u64(*task as u64);
            w.u64(*by as u64);
        }
        TraceEvent::Migrate {
            task,
            from,
            to,
            tier,
            reason,
        } => {
            w.u64(*task as u64);
            w.u64(from.0 as u64);
            w.u64(to.0 as u64);
            w.u64(tier_index(*tier));
            w.u64(reason.index() as u64);
            match reason {
                MigrationReason::SpeedPull {
                    local_speed,
                    remote_speed,
                    global_speed,
                } => {
                    w.f64(*local_speed);
                    w.f64(*remote_speed);
                    w.f64(*global_speed);
                }
                MigrationReason::LoadBalance { level } => w.u64(tier_index(*level)),
                MigrationReason::DwrrRound { round } => w.u64(*round),
                _ => {}
            }
        }
        TraceEvent::SpeedSample { task, speed } => {
            w.opt(*task);
            w.f64(*speed);
        }
        TraceEvent::BalancerActivation {
            policy,
            local,
            global,
            outcome,
            jitter,
        } => {
            let id = policies
                .iter()
                .position(|p| *p == *policy)
                .unwrap_or_else(|| {
                    policies.push(policy);
                    policies.len() - 1
                });
            w.u64(id as u64);
            w.f64(*local);
            w.f64(*global);
            let outcome_idx = OUTCOMES
                .iter()
                .position(|o| o == outcome)
                .expect("OUTCOMES is exhaustive");
            w.u64(outcome_idx as u64);
            w.u64(jitter.as_nanos());
        }
        TraceEvent::BarrierArrive {
            task,
            cond,
            episode,
            arrived,
            parties,
        } => {
            w.u64(*task as u64);
            w.u64(*cond as u64);
            w.u64(*episode);
            w.u64(*arrived as u64);
            w.u64(*parties as u64);
        }
        TraceEvent::BarrierRelease {
            task,
            cond,
            episode,
        } => {
            w.u64(*task as u64);
            w.u64(*cond as u64);
            w.u64(*episode);
        }
        TraceEvent::ProcFault {
            task,
            op,
            kind,
            attempt,
            retrying,
        } => {
            w.opt(*task);
            let op_idx = PROC_OPS
                .iter()
                .position(|o| o == op)
                .expect("PROC_OPS is exhaustive");
            w.u64(op_idx as u64);
            w.u64(kind.index() as u64);
            w.u64(u64::from(*attempt));
            w.u64(u64::from(*retrying));
        }
        TraceEvent::RequestArrival {
            request,
            arrival,
            queued,
        } => {
            w.u64(*request as u64);
            w.u64(arrival.as_nanos());
            w.u64(*queued as u64);
        }
        TraceEvent::RequestDispatch {
            request,
            subtask,
            wait,
        } => {
            w.u64(*request as u64);
            w.u64(*subtask as u64);
            w.u64(wait.as_nanos());
        }
        TraceEvent::RequestComplete { request, latency } => {
            w.u64(*request as u64);
            w.u64(latency.as_nanos());
        }
        TraceEvent::RequestDrop { request, reason } => {
            w.u64(*request as u64);
            w.u64(reason.index() as u64);
        }
        TraceEvent::Quarantined { task, failures } => {
            w.u64(*task as u64);
            w.u64(u64::from(*failures));
        }
        TraceEvent::FreqStep { ratio } => w.f64(*ratio),
    }
}

/// Iterator over retained records, oldest first, decoding them out of the
/// compact ring. Returned by [`TraceBuffer::records`](crate::TraceBuffer::records).
///
/// The decoder is this iterator's `next`: inlined into a consumer's loop,
/// its tag dispatch and the consumer's `match` on the event fuse.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    bytes: &'a [u8],
    policies: &'a [&'static str],
    pos: usize,
    time_ns: u64,
    remaining: usize,
}

impl Records<'_> {
    #[inline]
    fn byte(&mut self) -> u8 {
        let b = self.bytes[self.pos];
        self.pos += 1;
        b
    }

    /// One LEB128 varint; a value below 128 takes the one-byte path.
    #[inline]
    fn u64(&mut self) -> u64 {
        let b = self.byte();
        if b < 0x80 {
            return u64::from(b);
        }
        let mut v = u64::from(b & 0x7F);
        let mut shift = 7;
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7F) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    #[inline]
    fn usize(&mut self) -> usize {
        self.u64() as usize
    }

    #[inline]
    fn i64(&mut self) -> i64 {
        let z = self.u64();
        ((z >> 1) as i64) ^ -((z & 1) as i64)
    }

    #[inline]
    fn f64(&mut self) -> f64 {
        let raw = self.bytes[self.pos..]
            .first_chunk::<8>()
            .expect("a float's eight bytes were encoded");
        self.pos += 8;
        f64::from_bits(u64::from_le_bytes(*raw))
    }

    #[inline]
    fn opt(&mut self) -> Option<usize> {
        match self.u64() {
            0 => None,
            t => Some((t - 1) as usize),
        }
    }
}

impl Iterator for Records<'_> {
    type Item = TraceRecord;

    /// Decodes the next record: the inverse of `encode`.
    #[inline]
    fn next(&mut self) -> Option<TraceRecord> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let tag = self.byte();
        self.time_ns = self.time_ns.wrapping_add(self.i64() as u64);
        let time = SimTime::from_nanos(self.time_ns);
        let core = CoreId(self.usize());
        let event = match tag {
            0 => TraceEvent::Dispatch { task: self.usize() },
            1 => TraceEvent::Desched {
                task: self.usize(),
                ran: SimDuration::from_nanos(self.u64()),
            },
            2 => TraceEvent::Preempt {
                task: self.usize(),
                by: self.usize(),
            },
            3 => TraceEvent::Wake { task: self.usize() },
            4 => TraceEvent::Sleep { task: self.usize() },
            5 => TraceEvent::Exit { task: self.usize() },
            6 => {
                let task = self.usize();
                let from = CoreId(self.usize());
                let to = CoreId(self.usize());
                let tier = DomainLevel::ALL[self.usize()];
                let reason = match self.u64() {
                    0 => MigrationReason::SpeedPull {
                        local_speed: self.f64(),
                        remote_speed: self.f64(),
                        global_speed: self.f64(),
                    },
                    1 => MigrationReason::LoadBalance {
                        level: DomainLevel::ALL[self.usize()],
                    },
                    2 => MigrationReason::NewIdle,
                    3 => MigrationReason::DwrrRound { round: self.u64() },
                    4 => MigrationReason::UlePush,
                    5 => MigrationReason::UleSteal,
                    6 => MigrationReason::WakePlacement,
                    _ => MigrationReason::Unspecified,
                };
                TraceEvent::Migrate {
                    task,
                    from,
                    to,
                    tier,
                    reason,
                }
            }
            7 => TraceEvent::SpeedSample {
                task: self.opt(),
                speed: self.f64(),
            },
            8 => TraceEvent::BalancerActivation {
                policy: {
                    let id = self.usize();
                    self.policies[id]
                },
                local: self.f64(),
                global: self.f64(),
                outcome: OUTCOMES[self.usize()],
                jitter: SimDuration::from_nanos(self.u64()),
            },
            9 => TraceEvent::BarrierArrive {
                task: self.usize(),
                cond: self.usize(),
                episode: self.u64(),
                arrived: self.usize(),
                parties: self.usize(),
            },
            10 => TraceEvent::BarrierRelease {
                task: self.usize(),
                cond: self.usize(),
                episode: self.u64(),
            },
            11 => TraceEvent::ProcFault {
                task: self.opt(),
                op: PROC_OPS[self.usize()],
                kind: FAULT_KINDS[self.usize()],
                attempt: self.u64() as u32,
                retrying: self.u64() != 0,
            },
            12 => TraceEvent::RequestArrival {
                request: self.usize(),
                arrival: SimTime::from_nanos(self.u64()),
                queued: self.usize(),
            },
            13 => TraceEvent::RequestDispatch {
                request: self.usize(),
                subtask: self.usize(),
                wait: SimDuration::from_nanos(self.u64()),
            },
            14 => TraceEvent::RequestComplete {
                request: self.usize(),
                latency: SimDuration::from_nanos(self.u64()),
            },
            15 => TraceEvent::RequestDrop {
                request: self.usize(),
                reason: DROP_REASONS[self.usize()],
            },
            16 => TraceEvent::Quarantined {
                task: self.usize(),
                failures: self.u64() as u32,
            },
            _ => TraceEvent::FreqStep { ratio: self.f64() },
        };
        Some(TraceRecord { time, core, event })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Records<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(records: &[TraceRecord]) {
        let mut ring = Ring::default();
        for r in records {
            ring.push(r.time, r.core, &r.event);
        }
        let mut decoded = ring.records();
        for r in records {
            assert_eq!(decoded.next().as_ref(), Some(r));
        }
        assert_eq!(decoded.pos, ring.tail, "decoder consumed every byte");
    }

    #[test]
    fn every_variant_roundtrips_exactly() {
        let t = SimTime::from_nanos;
        let d = SimDuration::from_nanos;
        let records = vec![
            TraceRecord {
                time: t(5),
                core: CoreId(0),
                event: TraceEvent::Dispatch { task: 3 },
            },
            TraceRecord {
                time: t(5),
                core: CoreId(63),
                event: TraceEvent::Desched {
                    task: usize::MAX,
                    ran: d(u64::MAX),
                },
            },
            TraceRecord {
                time: t(2), // time going backwards still round-trips
                core: CoreId(1),
                event: TraceEvent::Preempt { task: 1, by: 2 },
            },
            TraceRecord {
                time: t(1_000_000_000_000),
                core: CoreId(2),
                event: TraceEvent::Migrate {
                    task: 9,
                    from: CoreId(4),
                    to: CoreId(12),
                    tier: DomainLevel::ALL[2],
                    reason: MigrationReason::SpeedPull {
                        local_speed: 1.25,
                        remote_speed: f64::MIN_POSITIVE / 2.0, // subnormal
                        global_speed: -0.0,
                    },
                },
            },
            TraceRecord {
                time: t(1_000_000_000_001),
                core: CoreId(2),
                event: TraceEvent::Migrate {
                    task: 9,
                    from: CoreId(4),
                    to: CoreId(12),
                    tier: DomainLevel::ALL[0],
                    reason: MigrationReason::DwrrRound { round: u64::MAX },
                },
            },
            TraceRecord {
                time: t(1_000_000_000_002),
                core: CoreId(3),
                event: TraceEvent::SpeedSample {
                    task: None,
                    speed: 0.75,
                },
            },
            TraceRecord {
                time: t(1_000_000_000_002),
                core: CoreId(3),
                event: TraceEvent::SpeedSample {
                    task: Some(0),
                    speed: f64::INFINITY,
                },
            },
            TraceRecord {
                time: t(1_000_000_000_003),
                core: CoreId(0),
                event: TraceEvent::BalancerActivation {
                    policy: "SPEED",
                    local: 0.9,
                    global: 0.7,
                    outcome: ActivationOutcome::Pulled,
                    jitter: d(12_345),
                },
            },
            TraceRecord {
                time: t(1_000_000_000_004),
                core: CoreId(0),
                event: TraceEvent::BarrierArrive {
                    task: 7,
                    cond: 100,
                    episode: 42,
                    arrived: 3,
                    parties: 64,
                },
            },
            TraceRecord {
                time: t(1_000_000_000_005),
                core: CoreId(0),
                event: TraceEvent::BarrierRelease {
                    task: 8,
                    cond: 100,
                    episode: 42,
                },
            },
            TraceRecord {
                time: t(1_000_000_000_006),
                core: CoreId(1),
                event: TraceEvent::ProcFault {
                    task: Some(55),
                    op: ProcOp::SetAffinity,
                    kind: ProcFaultKind::PermissionDenied,
                    attempt: 3,
                    retrying: true,
                },
            },
            TraceRecord {
                time: t(1_000_000_000_007),
                core: CoreId(1),
                event: TraceEvent::RequestArrival {
                    request: 11,
                    arrival: t(999_999_999_999),
                    queued: 4,
                },
            },
            TraceRecord {
                time: t(1_000_000_000_008),
                core: CoreId(1),
                event: TraceEvent::RequestDispatch {
                    request: 11,
                    subtask: 2,
                    wait: d(9),
                },
            },
            TraceRecord {
                time: t(1_000_000_000_009),
                core: CoreId(1),
                event: TraceEvent::RequestComplete {
                    request: 11,
                    latency: d(10),
                },
            },
            TraceRecord {
                time: t(1_000_000_000_010),
                core: CoreId(1),
                event: TraceEvent::RequestDrop {
                    request: 12,
                    reason: RequestDropReason::ShedTimeout,
                },
            },
            TraceRecord {
                time: t(1_000_000_000_011),
                core: CoreId(5),
                event: TraceEvent::Quarantined {
                    task: 13,
                    failures: 3,
                },
            },
            TraceRecord {
                time: t(1_000_000_000_012),
                core: CoreId(5),
                event: TraceEvent::FreqStep { ratio: 0.5 },
            },
            TraceRecord {
                time: t(1_000_000_000_013),
                core: CoreId(0),
                event: TraceEvent::Wake { task: 1 },
            },
            TraceRecord {
                time: t(1_000_000_000_013),
                core: CoreId(0),
                event: TraceEvent::Sleep { task: 2 },
            },
            TraceRecord {
                time: t(1_000_000_000_014),
                core: CoreId(0),
                event: TraceEvent::Exit { task: 2 },
            },
        ];
        roundtrip(&records);
    }

    #[test]
    fn common_records_encode_small() {
        let mut ring = Ring::default();
        ring.push(
            SimTime::from_nanos(1_000_000),
            CoreId(7),
            &TraceEvent::Wake { task: 1 },
        );
        let before = ring.tail;
        ring.push(
            SimTime::from_nanos(1_000_500),
            CoreId(7),
            &TraceEvent::Dispatch { task: 42 },
        );
        let len = ring.tail - before;
        assert!(len <= 6, "dispatch took {len} bytes");
    }

    #[test]
    fn a_switch_writes_the_bytes_of_its_two_records() {
        // Time deltas of every varint length, both signs, and full-width
        // task ids, cores and stretches.
        let cases = [
            (5u64, 0usize, 0usize, 0u64, 1usize),
            (5, 3, 17, 1_000, 18),
            (1_000_000, 127, 128, 16_383, 16_384),
            (3, 1, 2, 5, 2), // earlier than the previous record
            (u64::MAX, usize::MAX, usize::MAX, u64::MAX, usize::MAX),
            (0, 9, 4, 1 << 40, 4), // the same task out and in
        ];
        let (mut one, mut two) = (Ring::default(), Ring::default());
        for (ns, core, out, ran, into) in cases {
            let (time, core) = (SimTime::from_nanos(ns), CoreId(core));
            let ran = SimDuration::from_nanos(ran);
            one.push_switch(time, core, out, ran, into);
            two.push(time, core, &TraceEvent::Desched { task: out, ran });
            two.push(time, core, &TraceEvent::Dispatch { task: into });
            assert_eq!(one.bytes[..one.tail], two.bytes[..two.tail]);
            assert_eq!((one.len(), one.tail_ns), (two.len(), two.tail_ns));
        }
        assert!(one.records().eq(two.records()));
    }

    #[test]
    fn eviction_compacts_and_keeps_decoding() {
        let mut ring = Ring::default();
        let at = |i: u64| SimTime::from_nanos(1_000 * i);
        for i in 0..40_000 {
            ring.push(
                at(i),
                CoreId(i as usize % 3),
                &TraceEvent::Wake { task: i as usize },
            );
            if ring.len() > 1_000 {
                ring.pop_front();
            }
        }
        assert!(ring.head < 1 << 16, "the dead prefix was compacted away");
        let kept: Vec<_> = ring.records().map(|r| r.time).collect();
        assert_eq!(kept, (39_000..40_000).map(at).collect::<Vec<_>>());
        let mut empty = Ring::default();
        empty.pop_front();
        assert_eq!(empty.len(), 0);
    }
}
