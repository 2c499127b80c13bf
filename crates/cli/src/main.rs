//! `gw2v` — the GraphWord2Vec command-line tool.
//!
//! The commands and their flags are listed once, in
//! [`commands::USAGE`], which `gw2v help` prints.

mod args;
mod commands;

use args::ArgError;

fn main() {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_else(|| "help".to_owned());
    let rest: Vec<String> = argv.collect();
    let result = match command.as_str() {
        "generate" => commands::generate(&rest),
        "phrases" => commands::phrases(&rest),
        "corpus" => commands::corpus(&rest),
        "train" => commands::train(&rest),
        "eval" => commands::eval(&rest),
        "neighbors" => commands::neighbors(&rest),
        "serve" => commands::serve(&rest),
        "help" | "--help" | "-h" => {
            print!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(ArgError(format!("unknown command {other:?}; run `gw2v help`")).into()),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
