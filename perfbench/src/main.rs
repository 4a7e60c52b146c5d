//! `automon-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the report, then one JSON result line. Exits 0 on success, 1
//! when a correctness gate fails, 2 on a usage or set-up error and 3 when
//! the run overruns its deadline.

use std::time::Duration;

use automon_perfbench::bench::{self, Opts};
use automon_perfbench::workload::{Spec, NAMES};

/// Wall-clock ceiling of one invocation, build excluded.
const HARD_LIMIT: Duration = Duration::from_secs(170);

fn usage() -> String {
    format!(
        "usage: automon-perfbench --workload <{}> --seed <n> --seconds <1..60> --trace <0|1>",
        NAMES.join("|")
    )
}

fn parse(args: &[String]) -> Result<(Spec, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(bad)?,
            "--seconds" => opts.seconds = value.parse::<u32>().map_err(bad)?.into(),
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value `{value}` for --trace")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = Spec::named(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    if !(1.0..=60.0).contains(&opts.seconds) {
        return Err("--seconds must be 1..60".into());
    }
    Ok((spec, opts))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (spec, opts) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    // A wedged transport must not hang the caller: give up loudly. The
    // watchdog is never joined; it dies with the process.
    std::thread::spawn(|| {
        std::thread::sleep(HARD_LIMIT);
        eprintln!("error: run exceeded {HARD_LIMIT:?}");
        std::process::exit(3);
    });
    match bench::run(&spec, &opts) {
        Ok(out) => {
            for line in &out.report {
                println!("{line}");
            }
            println!("{}", out.json());
            std::process::exit(if out.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
