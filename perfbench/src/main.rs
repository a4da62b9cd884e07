//! Command line of the benchmark:
//!
//! ```text
//! hpmp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--expect-bmc <flavor>=<explored>,<pruned>,<transitions>]...
//! ```
//!
//! Prints one `name = value unit` line per metric and, as the last line,
//! the JSON result, whose `correct` and `failed` fields carry the outcome
//! of the correctness checks. Exits 2 on a usage error.

use std::process::ExitCode;

use hpmp_perfbench::{report, run, BmcCounts, Ctx};

fn parse(args: &[String]) -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: 1,
        seconds: 10.0,
        traced: false,
        expect_bmc: Default::default(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => ctx.seed = value.parse().map_err(|_| bad("not a seed"))?,
            "--seconds" => {
                ctx.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(ctx.seconds > 0.0 && ctx.seconds <= 600.0) {
                    return Err(bad("out of range (0, 600]"));
                }
            }
            "--trace" => {
                ctx.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--expect-bmc" => {
                let (flavor, counts) = value.split_once('=').ok_or_else(|| bad("malformed"))?;
                let n: Vec<u64> = counts
                    .split(',')
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .map_err(|_| bad("malformed"))?;
                let [explored, pruned, transitions] = n[..] else {
                    return Err(bad("expected three counts"));
                };
                ctx.expect_bmc.insert(
                    flavor.to_string(),
                    BmcCounts {
                        explored,
                        pruned,
                        transitions,
                    },
                );
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, ctx))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, ctx) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&workload, &ctx) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match report.render(&report::wanted(ctx.traced)) {
        Ok(text) => println!("{text}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
