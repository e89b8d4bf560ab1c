//! The Chrome exporter pinned on real runs: every named trace scenario
//! under SPEED and LOAD at the CLI's default profile, repeat 0 traced,
//! streamed into a hashing sink. Each export's length and FNV-1a hash must
//! equal the committed pair, which the `speedbal-cli trace <name>` file of
//! the same run also has. The ten exports are ~21 MB of JSON, 18.8 MB of
//! it ep-16x8 under LOAD, so this is a release-build test.

use speedbal_harness::experiments::{trace_scenario, Profile, TRACE_SCENARIOS};
use speedbal_harness::{run_repeat, Policy};
use speedbal_trace::export_chrome_to;
use std::io::{self, Write};

/// Byte count and FNV-1a hash of everything written.
struct Fnv1a {
    bytes: u64,
    hash: u64,
}

impl Write for Fnv1a {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &b in buf {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// (scenario, policy, bytes, FNV-1a) of every export.
const EXPORTS: [(&str, &str, u64, u64); 10] = [
    ("ep-3x2", "SPEED", 14472, 0x5370648ebd5722ad),
    ("ep-3x2", "LOAD", 7620, 0xc1ce871c785d8dbf),
    ("ep-16x8", "SPEED", 19671, 0x931050ada09bb2a4),
    ("ep-16x8", "LOAD", 18808658, 0x2b28e7ef36ad4c14),
    ("ep-hog", "SPEED", 16685, 0xf6947e8d87610975),
    ("ep-hog", "LOAD", 20263, 0x703faf191d848924),
    ("cg-barrier", "SPEED", 222225, 0x7ddf1e24779e8a0a),
    ("cg-barrier", "LOAD", 215454, 0xce36b9c105f05eac),
    ("web-serve", "SPEED", 785299, 0x44b99b1966444cfe),
    ("web-serve", "LOAD", 826082, 0xd03bf51b76d0d676),
];

#[test]
fn every_trace_scenario_exports_its_pinned_bytes() {
    let mut got = Vec::new();
    for (name, _) in TRACE_SCENARIOS {
        for policy in [Policy::Speed, Policy::Load] {
            let label = policy.label();
            let s = trace_scenario(name, policy, Profile::quick()).expect("a named scenario");
            let buf = run_repeat(&s, 0, true)
                .trace
                .expect("a traced repeat returns its buffer");
            let mut sink = Fnv1a {
                bytes: 0,
                hash: 0xcbf2_9ce4_8422_2325,
            };
            export_chrome_to(&buf, &mut sink).expect("hashing cannot fail");
            got.push((*name, label, sink.bytes, sink.hash));
        }
    }
    let listing: String = got
        .iter()
        .map(|(n, p, b, h)| format!("    ({n:?}, {p:?}, {b}, {h:#018x}),\n"))
        .collect();
    assert_eq!(got, EXPORTS, "exports now read:\n{listing}");
}
