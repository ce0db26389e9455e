//! Standalone explanation service: load a forest, serve explanations.
//!
//! ```text
//! gef-serve [--store DIR] [--model model.txt [--name NAME]]...
//! ```
//!
//! `--model` reads a forest in the LightGBM-style text format
//! (`gef_forest::io`). Repeat it to preload several models (each
//! `--name` applies to the most recent `--model`; unnamed models get
//! `model-<i>`). With no `--model` a small synthetic demo forest is
//! trained so the endpoints can be exercised immediately.
//!
//! `--store DIR` backs the server with a `gef-store` artifact store:
//! every CLI-given model is published into it (binary + text, tagged
//! with its name), every ref already in the store is loaded as a
//! served model (digest-verified, with quarantine + text-format
//! recovery on corrupt artifacts), `/explain` reuses cached
//! explanations keyed by `(model digest, config digest)`, and
//! `GET /models` reports digests plus MRU-cache state
//! (`GEF_STORE_CACHE_MB`).
//!
//! All serving knobs come from `GEF_SERVE_*` (see the `gef-serve` crate
//! docs): port, workers, queue depth, default deadline, body cap,
//! breaker threshold/cooldown. The process serves until killed; drain
//! semantics are exercised programmatically (see `Server::shutdown`)
//! and by the `xp_serve` harness.

use gef_core::GefConfig;
use gef_forest::{Forest, GbdtParams, GbdtTrainer, Objective};
use gef_serve::{ModelEntry, ServeConfig, Server};

fn demo_forest() -> Forest {
    let mut state = 5u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    let xs: Vec<Vec<f64>> = (0..800).map(|_| (0..4).map(|_| next()).collect()).collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| 2.0 * x[0] - x[1] + (x[2] * 5.0).sin() + 0.5 * x[3])
        .collect();
    GbdtTrainer::new(GbdtParams {
        num_trees: 60,
        num_leaves: 16,
        learning_rate: 0.1,
        min_data_in_leaf: 10,
        objective: Objective::RegressionL2,
        ..Default::default()
    })
    .fit(&xs, &ys)
    .expect("the demo forest trains on synthetic data")
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let mut models: Vec<ModelEntry> = Vec::new();
    let mut store_dir: Option<String> = None;
    let mut i = 1;
    while i < argv.len() {
        let path = |j: usize| -> &str {
            argv.get(j)
                .unwrap_or_else(|| {
                    eprintln!("{} requires an argument", argv[j - 1]);
                    std::process::exit(2);
                })
                .as_str()
        };
        match argv[i].as_str() {
            "--model" => {
                let p = path(i + 1);
                let raw = std::fs::read_to_string(p).unwrap_or_else(|e| {
                    eprintln!("cannot read {p}: {e}");
                    std::process::exit(2);
                });
                let forest = gef_forest::io::from_text(&raw).unwrap_or_else(|e| {
                    eprintln!("cannot parse {p}: {e}");
                    std::process::exit(2);
                });
                models.push(ModelEntry {
                    name: format!("model-{}", models.len()),
                    forest,
                    config: GefConfig::default(),
                });
                i += 2;
            }
            "--store" => {
                store_dir = Some(path(i + 1).to_string());
                i += 2;
            }
            "--name" => {
                let name = path(i + 1).to_string();
                match models.last_mut() {
                    Some(m) => m.name = name,
                    None => {
                        eprintln!("--name must follow a --model flag");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            other => {
                eprintln!("unknown flag {other:?} (expected --store/--model/--name)");
                std::process::exit(2);
            }
        }
    }
    // Open the artifact store first: CLI models are published into it
    // (binary + text, name-tagged), then *every* ref in the store is
    // loaded back — digest-verified, with quarantine + text-format
    // recovery — so a restarted server picks up models published by
    // earlier runs without re-reading the original files.
    let store = store_dir.map(|dir| {
        let store = gef_store::Store::open(&dir).unwrap_or_else(|e| {
            eprintln!("gef-serve: cannot open store {dir}: {e}");
            std::process::exit(2);
        });
        for m in &models {
            let digest = store.publish_forest(&m.forest).unwrap_or_else(|e| {
                eprintln!("gef-serve: cannot publish {:?} into the store: {e}", m.name);
                std::process::exit(2);
            });
            if let Err(e) = store.tag(&m.name, digest) {
                eprintln!("gef-serve: cannot tag {:?}: {e}", m.name);
                std::process::exit(2);
            }
        }
        for (name, digest) in store.refs() {
            if models.iter().any(|m| m.name == name) {
                continue;
            }
            match store.load_forest(digest) {
                Ok(loaded) => models.push(ModelEntry {
                    name,
                    forest: (*loaded.forest).clone(),
                    config: GefConfig::default(),
                }),
                Err(e) => {
                    // Corrupt store artifacts are quarantined, never
                    // fatal: the server starts without that model.
                    eprintln!("gef-serve: skipping store model {name:?}: {e}");
                }
            }
        }
        std::sync::Arc::new(store)
    });

    if models.is_empty() {
        eprintln!("gef-serve: no --model given; serving a synthetic demo forest as \"demo\"");
        models.push(ModelEntry {
            name: "demo".into(),
            forest: demo_forest(),
            config: GefConfig {
                num_univariate: 4,
                n_samples: 2_000,
                ..Default::default()
            },
        });
    }

    let cfg = ServeConfig::from_env();
    let names: Vec<String> = models.iter().map(|m| m.name.clone()).collect();
    let server = Server::start_with_store(cfg, models, store).unwrap_or_else(|e| {
        eprintln!("gef-serve: cannot bind: {e}");
        std::process::exit(1);
    });
    println!(
        "gef-serve: listening on 127.0.0.1:{} with model(s) {}",
        server.port(),
        names.join(", ")
    );
    println!("  POST /explain  {{\"instance\":[...], \"model\":\"name\", \"deadline_ms\":N}}");
    println!("  POST /predict  {{\"instance\":[...], \"model\":\"name\"}}");
    println!("  GET  /healthz | GET /stats | GET /metrics | GET /models");
    // Serve until the process is killed; there is no signal handling
    // without a libc dependency, so foreground use is Ctrl-C.
    loop {
        std::thread::park();
    }
}
