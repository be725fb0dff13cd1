//! `paper <out-dir> [name ...]` — regenerate the paper's text outputs.
//!
//! Writes `<out-dir>/<name>.txt` for each named output (every one of
//! `sandwich_bench::paper::OUTPUTS` when no name is given). Outputs that read
//! the same scenario share one run of it, so a full pass runs each scenario
//! once. Progress (`[bench] ...`) goes to stderr. An unknown name is an
//! error before anything runs or any directory is created.
//!
//! Knobs: `SANDWICH_DAYS`, `SANDWICH_SCALE` and `SANDWICH_SEED` (see
//! `sandwich_bench`), `SANDWICH_STORE_DIR` for `export_dataset`'s store
//! (default `dataset.store` in the working directory).

use std::path::PathBuf;

use sandwich_bench::paper::{plan, render_group};

fn fail(message: String) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(out_dir) = args.next().map(PathBuf::from) else {
        fail("usage: paper <out-dir> [name ...]".to_string())
    };
    let names: Vec<String> = args.collect();
    let groups = plan(&names).unwrap_or_else(|e| fail(e));
    // Read the scenario knobs once up front: a malformed one stops the
    // binary here, before a directory is created or a run starts.
    sandwich_bench::figure_scenario(120);
    std::fs::create_dir_all(&out_dir)
        .unwrap_or_else(|e| fail(format!("cannot create {}: {e}", out_dir.display())));
    for (group, names) in groups {
        for (name, text) in render_group(group, &names) {
            let path = out_dir.join(format!("{name}.txt"));
            std::fs::write(&path, text)
                .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", path.display())));
            eprintln!("[bench] wrote {}", path.display());
        }
    }
}
