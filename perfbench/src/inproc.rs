//! The in-process sizing loop: one closed-loop caller issuing
//! `Workspace::query` / `Workspace::instantiate` over seeded sizing
//! walks, each call in its own span. Every answer is checked against the
//! loaded structure's own interpretive path, outside the timed call.
//!
//! Walks visit the structures in turn, so the mix of structures is the
//! same in every run and only the sizings follow the seed.

use crate::corpus::Item;
use crate::trace::Tracer;
use analog_mps::api::Workspace;
use mps_bench::random_dims;
use mps_core::PlacementId;
use mps_geom::{Coord, Dims};
use mps_placer::Placement;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Steps of one sizing walk on one structure.
const WALK_STEPS: u64 = 256;

/// What one run of the loop checked.
#[derive(Debug, Default)]
pub struct LoopOutcome {
    pub attempted: u64,
    /// Errors and answers that differ from the reference.
    pub failed: u64,
}

/// Renders `dims` in protocol form.
#[must_use]
pub fn dims_json(dims: &Dims) -> String {
    let pairs: Vec<String> = dims.iter().map(|&(w, h)| format!("[{w},{h}]")).collect();
    format!("[{}]", pairs.join(","))
}

/// One local sizing step: nudge one dimension by up to an eighth of its
/// range, clamped to the designer bounds.
fn local_step(item: &Item, dims: &Dims, rng: &mut StdRng) -> Dims {
    let bounds = item.mps.bounds();
    let block = rng.random_range(0..bounds.len());
    let mut pairs = dims.as_pairs().to_vec();
    let (range, value) = if rng.random_bool(0.5) {
        (bounds[block].w, &mut pairs[block].0)
    } else {
        (bounds[block].h, &mut pairs[block].1)
    };
    let reach = Coord::try_from(range.len() / 8)
        .unwrap_or(Coord::MAX)
        .max(1);
    *value = (*value + rng.random_range(-reach..=reach)).clamp(range.lo(), range.hi());
    Dims::from_vec_unchecked(pairs)
}

/// One call's answer, kept for the check after the walk.
enum Answer {
    Id(Option<Option<PlacementId>>),
    Placement(Option<Placement>),
}

/// Runs whole cycles of sizing walks over `items` (loaded in `ws` under
/// their names) until at least `max_steps` steps ran: mostly local steps,
/// one in ten a uniform jump, half `query` and half `instantiate`.
pub fn run(
    ws: &mut Workspace,
    items: &[Item],
    seed: u64,
    max_steps: u64,
    tracer: &mut Tracer,
) -> LoopOutcome {
    let mut out = LoopOutcome::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51_2E_10_0B);
    let mut walk = 0u64;
    // Stop only between cycles over every structure, so each run weighs
    // the structures equally.
    let cycle = items.len() as u64;
    while !walk.is_multiple_of(cycle) || walk * WALK_STEPS < max_steps {
        let item = &items[walk as usize % items.len()];
        let name = item.name.as_str();
        // Plan the walk, make its calls back to back, then check them.
        let mut dims = random_dims(&item.circuit, &mut rng);
        let mut steps = Vec::with_capacity(WALK_STEPS as usize);
        for s in 0..WALK_STEPS {
            if s > 0 {
                dims = if rng.random_bool(0.1) {
                    random_dims(&item.circuit, &mut rng)
                } else {
                    local_step(item, &dims, &mut rng)
                };
            }
            steps.push((rng.random_bool(0.5), dims.clone()));
        }
        let answers: Vec<Answer> = steps
            .iter()
            .enumerate()
            .map(|(s, (query, dims))| {
                let req = walk * WALK_STEPS + s as u64;
                if *query {
                    let got = tracer.span("workspace.query", req, 1, |_| ws.query(name, dims));
                    Answer::Id(got.ok())
                } else {
                    let got = tracer.span("workspace.instantiate", req, 1, |_| {
                        ws.instantiate(name, dims)
                    });
                    Answer::Placement(got.ok())
                }
            })
            .collect();
        let reference = ws.handle(name).expect("item is loaded").structure();
        for ((_, dims), answer) in steps.iter().zip(&answers) {
            let ok = match answer {
                Answer::Id(got) => *got == Some(reference.query(dims)),
                Answer::Placement(got) => {
                    got.as_ref() == Some(&reference.instantiate_or_fallback(dims))
                }
            };
            out.attempted += 1;
            out.failed += u64::from(!ok);
        }
        walk += 1;
    }
    out
}
