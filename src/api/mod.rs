//! The unified facade: typed dimension vectors, one error type, and a
//! session [`Workspace`] spanning generate → persist → compile → serve.
//!
//! The lower crates stay precise — `mps-core` speaks
//! [`GenerateError`](mps_core::GenerateError) /
//! [`PersistError`](mps_core::PersistError), `mps-serve` speaks
//! [`ServeError`](mps_serve::ServeError) — and this module is where they
//! compose: every public fallible function here returns
//! `Result<_, `[`MpsError`]`>`, every dimension vector is a typed
//! [`Dims`], and the [`Workspace`] owns the whole artifact lifecycle
//! that bench binaries and applications previously re-stitched by hand.
//!
//! [`Dims`]: mps_geom::Dims

mod error;
mod workspace;

pub use error::{MpsError, QueryError};
pub use mps_serve::ServerConfig;
pub use workspace::{ArtifactSource, StructureHandle, Workspace};
