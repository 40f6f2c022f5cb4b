//! # gamora-gnn
//!
//! A from-scratch GraphSAGE stack: everything needed to train and run the
//! paper's multi-task node classifier without an external deep-learning
//! framework (the "thin GNN ecosystem" substitution of this reproduction).
//!
//! * [`Matrix`] — dense tensors over one owned `Vec<f32>`, with
//!   multi-threaded, register-blocked matmul kernels and fused bias/ReLU
//!   epilogues (scoped-thread row blocks stand in for the paper's GPU);
//! * [`Graph`] — CSR message passing with exact adjoint backward;
//!   [`Graph::from_sections_into`] streams the edges of one or more
//!   disjoint sections into a reused instance with zero steady-state
//!   allocation;
//! * [`SageLayer`]/[`Linear`] — layers with hand-derived backward passes,
//!   validated by finite-difference gradient checks;
//! * [`MultiTaskSage`] — K-layer trunk + shared linear + per-task softmax
//!   heads (hard parameter sharing, paper Eq. 2);
//! * [`Adam`], [`train`] — optimisation and full-batch multi-task training.
//!
//! Inference is `&self`: one model instance can be shared read-only across
//! serve workers, each carrying its own [`InferenceScratch`] so warmed-up
//! forward passes never touch the heap; a batch assembled from sections
//! goes through the model one cache-sized group of sections at a time, so
//! that scratch does not grow with the batch, and each group on the
//! quotient of its colour refinement — one row per class of nodes whose
//! neighbourhoods agree, bit-identical to the row-per-node forward — so
//! that a layer computes each distinct row once. Training state — every
//! layer's activations and the buffers the backward pass works in — lives
//! in a [`Tape`] owned by the [`Trainer`], not inside the layers; the
//! backward GEMMs run through the same dispatched kernel in a K order
//! that reproduces the scalar loops they replaced, so a trained model is
//! the same bytes on every CPU and at every thread budget.
//!
//! ```
//! use gamora_gnn::{Direction, Graph, InferenceScratch, Matrix, ModelConfig, MultiTaskSage};
//! let graph = Graph::from_edges(4, &[(0, 2), (1, 2), (2, 3)], Direction::Bidirectional);
//! let model = MultiTaskSage::new(ModelConfig {
//!     in_dim: 3, hidden: 8, layers: 2, shared_dim: 8,
//!     task_classes: vec![4, 2, 2], seed: 1,
//! });
//! let x = Matrix::zeros(4, 3);
//! let per_task = model.forward(&graph, &x);
//! assert_eq!(per_task.len(), 3);
//! // Hot loops reuse a scratch; a node's row is its class's, and tasks are
//! // column ranges of it:
//! let mut scratch = InferenceScratch::default();
//! assert_eq!(&model.infer(&graph, &x, &mut scratch, None).row(2)[4..6], per_task[1].row(2));
//! ```

#![warn(missing_docs)]

mod adam;
mod graph;
mod kernel;
mod layers;
pub mod loss;
mod model;
pub mod parallel;
mod refine;
mod tensor;
mod trainer;

pub use adam::Adam;
pub use graph::{Direction, Graph};
pub use layers::{BackwardScratch, Linear, SageLayer, SageScratch, SageTape};
pub use model::{
    for_each_group, ForwardObserver, ForwardStage, InferenceScratch, Logits, ModelConfig,
    MultiTaskSage, Tape,
};
pub use tensor::Matrix;
#[doc(hidden)]
pub use tensor::{Epilogue, KernelVariant};

/// The instruction-set variant of the GEMM and aggregation kernels this
/// process runs — `"portable"`, `"avx2"` or `"avx512f"` — picked from the
/// CPU on first use. Every variant computes the same bits; reports carry
/// the name so a timing says which code path produced it.
pub fn kernel_isa() -> &'static str {
    kernel::active().isa()
}
pub use trainer::{evaluate, train, GraphData, TrainConfig, TrainReport, Trainer};
