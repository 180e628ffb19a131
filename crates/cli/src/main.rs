//! `wbsim` — the write-buffer study's command line. `wbsim help` lists every
//! command and option; each is declared once, in `args.rs`.

use std::process::ExitCode;

mod args;
mod commands;

fn main() -> ExitCode {
    // A reader that closes stdout early (`wbsim run … | head`) makes the next
    // `println!` panic with EPIPE. Nobody wants the rest: exit 0, quietly.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload_as_str().unwrap_or_default();
        if msg.starts_with("failed printing to stdout") && msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        default_hook(info);
    }));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wbsim: {e}");
            eprintln!("run `wbsim help` for usage");
            ExitCode::FAILURE
        }
    }
}
