//! Library backing the `emap` command-line tool.
//!
//! Each subcommand is a function taking parsed [`args::Args`] and a writer,
//! so everything is testable without spawning processes; `main.rs` is a
//! thin shim. Subcommands:
//!
//! | command | purpose |
//! |---|---|
//! | `generate` | write the synthetic dataset registry as `.emapedf` directories |
//! | `inspect` | print the headers of a recording file |
//! | `build-mdb` | build a mega-database (from directories or the registry) and snapshot it |
//! | `mdb-info` | print statistics of a snapshot |
//! | `monitor` | run the full framework over a recording and report the verdict |
//! | `serve` | expose a mega-database as a TCP cloud server (`emap-cloud`) |
//! | `ping` | health-check a running cloud server |
//! | `stats` | print a running server's live telemetry snapshot |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
mod commands;

pub use commands::{dispatch, CliError};

/// Usage text printed by `emap help` and on bad invocations.
pub const USAGE: &str = "\
emap — cloud-edge EEG anomaly prediction (EMAP, DAC 2020 reproduction)

USAGE:
  emap generate  --out DIR [--scale N] [--seed N] [--specs FILE.json]
      Generate synthetic corpora as .emapedf directories (the built-in
      five-dataset registry, or specs loaded from a JSON file).
  emap inspect   FILE...
      Print the headers of recording files (no sample data is loaded).
  emap build-mdb --out FILE (--registry SCALE | DIR...) [--seed N]
      Build a mega-database and write a binary snapshot.
  emap mdb-info  FILE
      Print statistics of a mega-database snapshot.
  emap monitor   (--mdb FILE | --cloud HOST:PORT) --input FILE
                 [--channel LABEL] [--json true]
      Run the EMAP pipeline over a recording and report the prediction —
      against a local snapshot or a remote cloud server, one loop and one
      output either way (the edge keeps tracking in degraded mode if the
      cloud drops out).
  emap serve     --addr HOST:PORT (--mdb FILE | --registry SCALE)
                 [--seed N] [--workers N] [--seconds N]
                 [--gate true] [--capacity N]
      Serve a mega-database over TCP for remote monitors; with
      --seconds the server exits after that long (for scripting).
      --gate rejects artifact slices at ingest (typed error, slice
      quarantined); --capacity bounds the store — live ingest past
      the bound evicts class-aware and bumps the slot generation.
      Watch ingest_*/quality_* counters with `emap stats`.
  emap ping      --addr HOST:PORT
      Health-check a running server and print its store size.
  emap stats     --addr HOST:PORT
      Print a running server's health figures and full telemetry
      snapshot: request counters, latency percentiles, sweep and
      search-work totals.
  emap help
      Show this message.
";
