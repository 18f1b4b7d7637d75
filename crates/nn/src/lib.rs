//! From-scratch CNN framework for MGDiffNet.
//!
//! The paper trains a fully convolutional U-Net (§3.1.2, §4.1: depth 3,
//! 16 base filters doubling with depth, batch normalization, LeakyReLU,
//! Sigmoid head, Adam) whose weights are resolution-agnostic — the property
//! the whole multigrid training scheme rests on. This crate implements that
//! network and everything under it with hand-written, finite-difference-
//! checked backpropagation:
//!
//! - [`conv::Conv3d`] / [`convt::ConvTranspose3d`] — convolutions with
//!   arbitrary per-axis kernel/stride/padding; 2D problems use a unit depth
//!   axis and `(1, k, k)` kernels so both dimensionalities share one code
//!   path. Each layer runs on a selectable [`lowering::ConvBackend`]: the
//!   default `Gemm` backend lowers **all four passes** (conv and
//!   transpose-conv, forward and backward) onto the single blocked matmul
//!   kernel of [`mgd_tensor::matmul`] via [`lowering`] — an implicit-GEMM
//!   gather for the conv forward, the shared im2col/col2im pair for the
//!   rest — while `Direct` keeps the original sliding-window kernels as a
//!   property-tested, bisectable reference;
//! - [`norm::BatchNorm`], [`pool::MaxPool3d`], [`act::LeakyReLU`],
//!   [`act::Sigmoid`];
//! - [`unet::UNet`] — the MGDiffNet architecture, including
//!   [`unet::UNet::deepened`] for the paper's architectural-adaptation study
//!   (§4.1.2);
//! - [`model::Model`] / [`optim::Optimizer`] — the traits the MGDiffNet
//!   trainers and the `SolverEngine` facade are generic over, so
//!   architectures and update rules are swappable (`Box<dyn Model>` /
//!   `Box<dyn Optimizer>` are themselves implementations);
//! - [`optim::Adam`] / [`optim::Sgd`] and flat parameter/gradient views for
//!   the distributed all-reduce;
//! - [`spatial`] — slab-decomposed (spatial model-parallel) inference:
//!   the U-Net forward over per-rank z-slabs with tagged halo-plane
//!   exchange before every stencil convolution, bitwise identical to the
//!   serial forward at any rank count;
//! - [`workspace::Workspace`] + the `&self` `infer` methods on every layer,
//!   [`unet::UNet::infer`] and the [`model::InferModel`] trait — the
//!   lock-free serving path: all transient buffers live in a caller-owned
//!   workspace, so one model behind an `Arc` answers concurrent predictions
//!   bitwise identically to the exclusive `forward(x, false)` path;
//! - [`gradcheck`] — the finite-difference harness every layer is verified
//!   against;
//! - [`io`] — serde-based weight checkpointing.
//!
//! All activations are NCDHW `(batch, channel, depth, height, width)`
//! [`mgd_tensor::Tensor`]s in `f64`.

pub mod act;
pub mod conv;
pub mod convt;
pub mod gradcheck;
pub mod io;
pub mod layer;
pub mod lowering;
pub mod model;
pub mod norm;
pub mod optim;
pub mod param;
pub mod pool;
pub mod spatial;
pub mod unet;
mod util;
pub mod workspace;

pub use act::{LeakyReLU, Sigmoid};
pub use conv::{Conv3d, PrepackStats};
pub use convt::ConvTranspose3d;
pub use io::{Checkpoint, WeightSnapshot};
pub use layer::Layer;
pub use lowering::ConvBackend;
pub use model::{InferModel, Model, SlabModel};
pub use norm::BatchNorm;
pub use optim::{Adam, Optimizer, Sgd};
pub use param::Param;
pub use pool::MaxPool3d;
pub use spatial::{
    activation_peak_elems, activation_peak_elems_opts, infer_slab, predict_slab, SlabOpts,
    SplitAxis,
};
pub use unet::{UNet, UNetConfig};
pub use workspace::Workspace;
