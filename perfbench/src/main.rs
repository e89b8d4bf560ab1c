//! `speedbal-perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!     [--out results.json] [--spans spans.json] [--print-fingerprints]
//! ```
//!
//! Without `--workload` every workload runs in a child process of its
//! own, one after another. Each metric is printed as
//! `<workload> <metric> <value> <unit>`; the last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exit codes: 0 correct, 2 usage or set-up error (no result
//! printed), 3 outputs not correct.

use speedbal_perfbench::bench::{
    self, run_workload, window_fingerprint, Opts, Report, Workload, END_TO_END, PER_LAYER,
    WORKLOADS,
};
use speedbal_perfbench::host;
use speedbal_perfbench::spans::json_num;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

struct Args {
    workload: Option<(&'static str, Workload)>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
    print_fingerprints: bool,
}

fn parse_seed(v: &str) -> Result<u64, String> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    }
    .map_err(|_| format!("--seed: not a 64-bit integer: {v}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: bench::DEFAULT_SEED,
        seconds: bench::DEFAULT_SECONDS,
        trace: false,
        out: None,
        spans: None,
        print_fingerprints: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let w = WORKLOADS.iter().find(|(n, _)| n == v).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
                    format!("unknown workload {v}; known: {}", names.join(", "))
                })?;
                a.workload = Some(*w);
            }
            "--seed" => a.seed = parse_seed(value()?)?,
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: not a positive number: {v}"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--spans" => {
                a.spans = Some(PathBuf::from(value()?));
                a.trace = true;
            }
            "--print-fingerprints" => a.print_fingerprints = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Where scratch files go: the build directory, inside the checkout.
fn target_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push(' '),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(r: &Report, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted.max(1),
        r.failed,
        body.join(", ")
    )
}

/// The `--out` document: host context plus each workload's result line.
fn out_json(a: &Args, results: &[(&str, f64, String)]) -> String {
    let ws: Vec<String> = results
        .iter()
        .map(|(w, calib, res)| {
            format!(
                "    \"{w}\": {{\"host_calib_ms\": {}, \"result\": {res}}}",
                json_num(*calib)
            )
        })
        .collect();
    format!(
        "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"host\": {{\"nproc\": {}, \
         \"cpu_model\": {}, \"commit\": {}}},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        a.seed,
        json_num(a.seconds),
        a.trace,
        host::nproc(),
        json_str(&host::cpu_model()),
        json_str(&host::git_commit()),
        ws.join(",\n")
    )
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_one(a: &Args, name: &'static str, w: Workload) -> Result<ExitCode, String> {
    let work_dir = target_dir().join(format!("perfbench-work-{}", std::process::id()));
    let opts = Opts {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        work_dir,
    };
    let r = run_workload(w, &opts);
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    let r = r?;
    let list: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = r.ordered(list);
    for p in &r.problems {
        eprintln!("{name}: not correct: {p}");
    }
    let calib = r.ordered(&[("host.calib_ms", "ms")])[0].1;
    let mut out = std::io::stdout().lock();
    let mut emit = |line: String| writeln!(out, "{line}").map_err(|e| format!("stdout: {e}"));
    if !a.trace {
        emit(format!("{name} run_ms_samples {} count", r.samples))?;
        emit(format!("{name} host.calib_ms {} ms", json_num(calib)))?;
    }
    for (m, v, u) in &metrics {
        emit(format!("{name} {m} {} {u}", json_num(*v)))?;
    }
    if a.trace {
        let path = a
            .spans
            .clone()
            .unwrap_or_else(|| target_dir().join(format!("perfbench-spans-{name}.json")));
        write_file(&path, &r.spans.to_chrome_json())?;
        eprintln!(
            "{name}: {} spans written to {}",
            r.spans.len(),
            path.display()
        );
    }
    let line = result_json(&r, &metrics);
    if let Some(path) = &a.out {
        write_file(path, &out_json(a, &[(name, calib, line.clone())]))?;
    }
    emit(line)?;
    Ok(if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    })
}

/// Runs every workload in a child process of its own, so each one's
/// peak RSS is its own, forwarding the children's output.
fn run_all(a: &Args, argv0: &Path) -> Result<ExitCode, String> {
    let mut results = Vec::new();
    let mut code = 0u8;
    for (name, _) in WORKLOADS {
        let mut cmd = Command::new(argv0);
        cmd.args(["--workload", name])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }]);
        if let Some(s) = &a.spans {
            let mut p = s.clone().into_os_string();
            p.push(format!(".{name}"));
            cmd.arg("--spans").arg(p);
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {name}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (mut calib, mut last) = (0.0, String::new());
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("{name} output: {e}"))?;
            println!("{line}");
            if let Some(v) = line
                .strip_prefix(&format!("{name} host.calib_ms "))
                .and_then(|r| r.split_whitespace().next())
            {
                calib = v.parse().unwrap_or(0.0);
            }
            last = line;
        }
        let status = child
            .wait()
            .map_err(|e| format!("waiting for {name}: {e}"))?;
        match status.code() {
            Some(0) => {}
            Some(3) => code = code.max(3),
            _ => {
                eprintln!("{name}: failed ({status})");
                code = code.max(1);
                continue;
            }
        }
        results.push((name, calib, last));
    }
    if let Some(path) = &a.out {
        write_file(path, &out_json(a, &results))?;
    }
    Ok(ExitCode::from(code))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let a = match parse_args(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let res = if a.print_fingerprints {
        WORKLOADS
            .iter()
            .filter_map(|(n, w)| match w {
                Workload::Sim(s) => Some((n, *s)),
                Workload::Artifacts => None,
            })
            .try_for_each(|(n, s)| {
                let f = window_fingerprint(s, bench::DEFAULT_SEED)?;
                println!("{n} {f:#018x}");
                Ok(())
            })
            .map(|()| ExitCode::SUCCESS)
    } else {
        match a.workload {
            Some((name, w)) => run_one(&a, name, w),
            None => std::env::current_exe()
                .map_err(|e| format!("locating this program: {e}"))
                .and_then(|exe| run_all(&a, &exe)),
        }
    };
    res.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}
