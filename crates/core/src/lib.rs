//! # minshare — Information Sharing Across Private Databases
//!
//! A from-scratch Rust reproduction of Agrawal, Evfimievski & Srikant,
//! *"Information Sharing Across Private Databases"* (SIGMOD 2003): the
//! *minimal necessary information sharing* paradigm and its four
//! protocols, built on commutative encryption over quadratic residues
//! modulo a safe prime.
//!
//! ## Protocols
//!
//! | Module | Paper | `R` learns | `S` learns |
//! |---|---|---|---|
//! | [`intersection`] | §3 | `V_S ∩ V_R`, `\|V_S\|` | `\|V_R\|` |
//! | [`equijoin`] | §4 | above + `ext(v)` for matches | `\|V_R\|` |
//! | [`intersection_size`] | §5.1 | `\|V_S ∩ V_R\|`, `\|V_S\|` | `\|V_R\|` |
//! | [`equijoin_size`] | §5.2 | `\|T_S ⋈ T_R\|` + duplicate-class leak | dup. distribution of `V_R` |
//!
//! The four modules above are the paper-literal reference over
//! [`minshare_crypto::QrGroup`]. What the daemon, the CLI
//! and the benchmarks run is [`engine`]: one chunked, bucketed
//! sender/receiver pair that takes a [`engine::ProtocolShape`] — the
//! three bits the four protocols differ in — and is frame-identical to
//! the reference at one bucket and one chunk.
//!
//! | Module | Role |
//! |---|---|
//! | [`engine`] | `run_sender` / `run_receiver` for any shape, `PipelineConfig` |
//! | [`shard`] | bucket assignment, `ShardConfig`, spill-record plumbing |
//! | [`spill`] | bounded-memory external merge sort |
//! | [`wire`] | message codec, chunked envelope, shard hello |
//! | [`service`] | daemon session dispatch and the typed client entry points |
//!
//! Every engine counts its operations in the paper's §6.1 cost units
//! ([`stats::OpCounters`]) and all traffic is byte-accounted, so the cost
//! analysis is verified *exactly*, not approximately.
//!
//! ## Quick start
//!
//! ```
//! use minshare::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A shared public group (tests use a small one; real deployments use
//! // QrGroup::well_known(1024)).
//! let mut rng = StdRng::seed_from_u64(42);
//! let group = QrGroup::generate(&mut rng, 64).unwrap();
//!
//! let vs: Vec<Vec<u8>> = [b"apple", b"grape"].map(|v| v.to_vec()).into();
//! let vr: Vec<Vec<u8>> = [b"grape", b"melon"].map(|v| v.to_vec()).into();
//!
//! let run = run_two_party(
//!     |t| {
//!         let mut rng = StdRng::seed_from_u64(1);
//!         intersection::run_sender(t, &group, &vs, &mut rng)
//!     },
//!     |t| {
//!         let mut rng = StdRng::seed_from_u64(2);
//!         intersection::run_receiver(t, &group, &vr, &mut rng)
//!     },
//! )
//! .unwrap();
//! assert_eq!(run.receiver.intersection, vec![b"grape".to_vec()]);
//! ```
//!
//! ## Applications
//!
//! The paper's two motivating applications are implemented end to end in
//! [`apps`]: selective document sharing (TF-IDF preprocessing + pairwise
//! intersection-size similarity join) and the three-party medical study
//! of Figure 2.
//!
//! The deliberately broken §3.1 hash protocol and its dictionary attack
//! live in [`naive`]; the §5.2 leak calculator lives in [`leakage`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod audit;
pub mod engine;
pub mod equijoin;
pub mod equijoin_size;
pub mod error;
pub mod intersection;
pub mod intersection_size;
pub mod leakage;
pub mod multiparty;
pub mod naive;
pub mod prepare;
pub mod runner;
pub mod service;
pub mod shard;
pub mod simrun;
pub mod spill;
pub mod stats;
pub mod tradeoff;
pub mod wire;

pub use error::ProtocolError;
pub use runner::{run_two_party, TwoPartyRun};
pub use simrun::{run_two_party_sim, SimOutcome, SimTwoPartyRun};
pub use stats::OpCounters;

/// Convenient glob import for applications.
pub mod prelude {
    pub use crate::engine::{self, PipelineConfig, ProtocolShape};
    pub use crate::equijoin;
    pub use crate::equijoin_size;
    pub use crate::intersection;
    pub use crate::intersection_size;
    pub use crate::runner::{run_two_party, TwoPartyRun};
    pub use crate::service::{
        run_client_equijoin_sharded, run_client_equijoin_size_sharded,
        run_client_intersection_sharded, run_client_intersection_size_sharded, ProtocolKind,
        Service, SessionReport, SessionRequest,
    };
    pub use crate::shard::{self, ShardConfig};
    pub use crate::simrun::{run_two_party_sim, SimOutcome, SimTwoPartyRun};
    pub use crate::spill::{ExtSorter, SpillStats};
    pub use crate::stats::OpCounters;
    pub use crate::ProtocolError;
    pub use minshare_crypto::kcipher::{ExtCipher, HybridCipher, MulBlockCipher};
    pub use minshare_crypto::{EncryptPool, QrGroup};
    pub use minshare_privdb::{rowcodec, ColumnType, Schema, Table, Value};
}
