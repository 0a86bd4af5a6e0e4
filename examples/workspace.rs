//! The facade in one sitting: a [`Workspace`] spanning the whole
//! generate → persist → compile → serve lifecycle, typed [`Dims`]
//! vectors, and the one [`MpsError`] every fallible call returns.
//!
//! Run with:
//! ```sh
//! cargo run --release --example workspace
//! ```

use analog_mps::api::{ArtifactSource, MpsError, Workspace};
use analog_mps::dims;
use analog_mps::mps::GeneratorConfig;
use analog_mps::netlist::{benchmarks, DimsCircuitExt};
use analog_mps::serve::Server;
use std::sync::Arc;
#[path = "shared/effort.rs"]
mod shared;
use shared::effort;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. One workspace = one artifact directory ---------------------
    let dir = std::env::temp_dir().join(format!("mps_workspace_example_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut ws = Workspace::open(&dir)?;

    // --- 2. Resolve structures by name ---------------------------------
    // The first resolution generates AND persists; reruns load. The
    // returned source says which happened.
    let config = |seed| {
        GeneratorConfig::builder()
            .outer_iterations(((300.0 * effort()) as usize).max(10))
            .inner_iterations(((120.0 * effort()) as usize).max(10))
            .seed(seed)
            .build()
    };
    for (name, circuit) in [
        ("circ01", benchmarks::circ01()),
        ("circ02", benchmarks::circ02()),
    ] {
        let (handle, source) = ws.generate_or_load(name, &circuit, config(7))?;
        println!(
            "{name}: {} placements, {}",
            handle.structure().placement_count(),
            match source {
                ArtifactSource::Generated(report) => format!("generated in {:?}", report.duration),
                ArtifactSource::Loaded(path) => format!("loaded from {}", path.display()),
            }
        );
    }

    // --- 3. Typed queries ----------------------------------------------
    // Dimension vectors are validated `Dims`, built from literals
    // (`dims![...]`), circuit helpers, or clamping arbitrary sizes in.
    let circuit = benchmarks::circ02();
    let sizing = circuit.max_dims().clamp_to(&circuit);
    let id = ws.query("circ02", &sizing)?;
    let placement = ws.instantiate("circ02", &sizing)?;
    assert!(placement.is_legal(&sizing, None));
    println!(
        "circ02 at max dims -> id {id:?}, bounding box {}",
        placement.bounding_box(&sizing).expect("non-empty")
    );

    // Refusals are typed, not stringly: one MpsError across the stack.
    let err: MpsError = ws.query("circ02", &dims![(10, 10)]).unwrap_err();
    println!("wrong arity is refused: {err}");
    let err: MpsError = ws.query("nope", &sizing).unwrap_err();
    println!("unknown names are refused: {err}");

    // --- 4. A second session loads what the first persisted ------------
    let mut session2 = Workspace::open(&dir)?;
    let (_, source) = session2.generate_or_load("circ02", &circuit, config(999))?;
    assert!(
        matches!(source, ArtifactSource::Loaded(_)),
        "second session must load, not regenerate"
    );
    assert_eq!(
        session2.query("circ02", &sizing)?,
        id,
        "reloaded structures answer identically"
    );

    // --- 5. The same directory serves traffic --------------------------
    // serve_registry() re-validates every artifact and compiles its
    // query plan — exactly what the mps-serve binary does at startup.
    let registry = Arc::new(ws.serve_registry()?);
    println!("registry serves: {:?}", registry.names());
    let server = Server::new(Arc::clone(&registry));
    let pairs: Vec<String> = sizing.iter().map(|(w, h)| format!("[{w},{h}]")).collect();
    let line = format!(
        r#"{{"kind":"query","structure":"circ02","dims":[{}]}}"#,
        pairs.join(",")
    );
    println!("→ {line}");
    println!("← {}", server.handle_line(&line).expect("non-blank line"));

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
