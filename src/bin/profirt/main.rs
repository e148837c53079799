//! `profirt` — command-line front end for the PROFIBUS message
//! schedulability analyses and the network simulator.
//!
//! ```text
//! profirt analyze  <config.json> [--policy fcfs|dm|dm-paper|edf|all]
//! profirt ttr      <config.json> [--model paper|refined]
//! profirt simulate <config.json> [--horizon TICKS] [--seed N]
//!                  [--gap-factor G] [--power-cycle M:OFF:ON]...
//!                  [--criticality-mix all-hi|mixed|mixed3]
//! profirt campaign run <spec.json|preset> [--quick] [--out DIR]
//! profirt campaign list
//! profirt campaign describe <spec.json|preset>
//! profirt serve    [--listen ADDR | --stdin | --selftest [--quick]]
//!                  [--workers N] [--queue-cap N] [--memo-cap N]
//! profirt example-config
//! ```
//!
//! Config files are JSON (see `configs/sample_network.json` or
//! `profirt example-config`); all times are in ticks (bit times).

mod campaign_cmd;
mod config_file;
mod output;
mod serve_cmd;

use std::process::ExitCode;

use profirt::core::TcycleModel;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        print_usage();
        return Err("missing subcommand".into());
    };
    match cmd.as_str() {
        "analyze" => {
            let path = positional(args, 1, "config path")?;
            let policy = flag_value(args, "--policy").unwrap_or("all");
            let net = config_file::load(path)?;
            output::analyze(&net.config, policy)
        }
        "ttr" => {
            let path = positional(args, 1, "config path")?;
            let model = match flag_value(args, "--model").unwrap_or("paper") {
                "paper" => TcycleModel::Paper,
                "refined" => TcycleModel::Refined,
                other => return Err(format!("unknown lateness model {other:?}")),
            };
            let net = config_file::load(path)?;
            output::ttr(&net.config, model)
        }
        "simulate" => {
            let path = positional(args, 1, "config path")?;
            let horizon: i64 = flag_value(args, "--horizon")
                .unwrap_or("5000000")
                .parse()
                .map_err(|e| format!("bad --horizon: {e}"))?;
            let seed: u64 = flag_value(args, "--seed")
                .unwrap_or("1")
                .parse()
                .map_err(|e| format!("bad --seed: {e}"))?;
            let gap_factor: u32 = flag_value(args, "--gap-factor")
                .unwrap_or("0")
                .parse()
                .map_err(|e| format!("bad --gap-factor: {e}"))?;
            let power_cycles = flag_values(args, "--power-cycle")
                .map(parse_power_cycle)
                .collect::<Result<Vec<_>, _>>()?;
            let mix = flag_value(args, "--criticality-mix")
                .map(|v| {
                    profirt::workload::CriticalityMix::parse(v).ok_or_else(|| {
                        format!(
                            "bad --criticality-mix {v:?}: want \"all-hi\", \
                             \"mixed\" or \"mixed3\""
                        )
                    })
                })
                .transpose()?;
            let net = config_file::load(path)?;
            output::simulate(net, horizon, seed, gap_factor, &power_cycles, mix)
        }
        "campaign" => match args.get(1).map(String::as_str) {
            Some("run") => {
                let target = positional(args, 2, "campaign spec or preset name")?;
                let quick = args.iter().any(|a| a == "--quick");
                let out_root = flag_value(args, "--out").unwrap_or("out");
                let horizon = flag_value(args, "--horizon")
                    .map(|v| {
                        v.parse::<i64>().ok().filter(|&h| h > 0).ok_or_else(|| {
                            format!("bad --horizon {v:?}: want a positive tick count")
                        })
                    })
                    .transpose()?;
                campaign_cmd::run(target, quick, horizon, out_root)
            }
            Some("list") => campaign_cmd::list(),
            Some("describe") => {
                let target = positional(args, 2, "campaign spec or preset name")?;
                campaign_cmd::describe(target)
            }
            other => {
                print_usage();
                Err(match other {
                    Some(o) => format!("unknown campaign action {o:?}"),
                    None => "missing campaign action (run|list|describe)".into(),
                })
            }
        },
        "serve" => serve_cmd::run(args),
        "example-config" => {
            println!("{}", config_file::example_json()?);
            Ok(())
        }
        "--help" | "-h" | "help" => {
            print_usage();
            Ok(())
        }
        other => {
            print_usage();
            Err(format!("unknown subcommand {other:?}"))
        }
    }
}

fn positional<'a>(args: &'a [String], idx: usize, what: &str) -> Result<&'a str, String> {
    args.get(idx)
        .map(String::as_str)
        .filter(|s| !s.starts_with("--"))
        .ok_or_else(|| format!("missing {what}"))
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// All values of a repeatable flag (`--power-cycle a --power-cycle b`).
fn flag_values<'a>(args: &'a [String], flag: &'a str) -> impl Iterator<Item = &'a str> + 'a {
    args.windows(2).filter_map(move |w| {
        if w[0] == flag {
            Some(w[1].as_str())
        } else {
            None
        }
    })
}

/// Parses `MASTER:OFF_TICK:ON_TICK` for `--power-cycle`.
fn parse_power_cycle(raw: &str) -> Result<(usize, i64, i64), String> {
    let parts: Vec<&str> = raw.split(':').collect();
    let [master, off_at, on_at] = parts.as_slice() else {
        return Err(format!(
            "bad --power-cycle {raw:?}: want MASTER:OFF_TICK:ON_TICK"
        ));
    };
    let bad = |what: &str| format!("bad --power-cycle {raw:?}: {what}");
    let master: usize = master.parse().map_err(|_| bad("master index"))?;
    let off_at: i64 = off_at.parse().map_err(|_| bad("off tick"))?;
    let on_at: i64 = on_at.parse().map_err(|_| bad("on tick"))?;
    if off_at < 0 || on_at <= off_at {
        return Err(bad("need 0 <= OFF_TICK < ON_TICK"));
    }
    Ok((master, off_at, on_at))
}

fn print_usage() {
    eprintln!(
        "profirt — PROFIBUS real-time message schedulability (Tovar & Vasques 1999)\n\
         \n\
         USAGE:\n\
           profirt analyze  <config.json> [--policy fcfs|dm|dm-paper|edf|all]\n\
           profirt ttr      <config.json> [--model paper|refined]\n\
           profirt simulate <config.json> [--horizon TICKS] [--seed N]\n\
                    [--gap-factor G] [--power-cycle M:OFF:ON]...\n\
                    [--criticality-mix all-hi|mixed|mixed3]\n\
           profirt campaign run <spec.json|preset> [--quick] [--horizon TICKS] [--out DIR]\n\
           profirt campaign list\n\
           profirt campaign describe <spec.json|preset>\n\
           profirt serve    [--listen ADDR | --stdin | --selftest [--quick]]\n\
                    [--workers N] [--queue-cap N] [--memo-cap N]\n\
           profirt example-config\n"
    );
}
