//! `nws-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints its metrics; the last line of standard
//! output is the JSON result. Exit code 2 on a usage error.

use nws_perfbench::{run, Workdir, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload '{value}' (expected one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed: an integer")?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| "--seconds: an integer")?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds: 1 to 600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nws-perfbench: {e}");
            eprintln!("usage: nws-perfbench --workload NAME --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let work = match Workdir::create(std::path::Path::new("."), &args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("nws-perfbench: cannot create the work directory: {e}");
            std::process::exit(1);
        }
    };
    let report = run(&args.workload, args.seed, args.seconds, args.trace, &work);
    drop(work);
    report.print(&args.workload);
}
