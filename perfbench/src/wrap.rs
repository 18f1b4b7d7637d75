//! Tracing wrappers over the program's public traits. Each forwards every
//! call to the wrapped value unchanged and records a span around the calls
//! that do work, so a traced replay computes exactly what the untraced
//! program computes.

use crate::trace::Recorder;
use mgd_dist::Comm;
use mgd_nn::{InferModel, Layer, Model, Optimizer, Param, SlabModel, Workspace};
use mgd_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A [`Model`] whose training forward and backward passes are spans.
pub struct TracedModel {
    pub inner: Box<dyn Model>,
    pub rec: Arc<Recorder>,
    /// Parent span id for the serving view's `nn.infer` spans (0: none).
    pub infer_parent: Arc<AtomicU64>,
}

impl Layer for TracedModel {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let inner = &mut self.inner;
        self.rec
            .span("nn.forward", None, || inner.forward(x, train))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let inner = &mut self.inner;
        self.rec
            .span("nn.backward", None, || inner.backward(grad_out))
    }

    fn params(&mut self) -> Vec<&mut Param> {
        self.inner.params()
    }

    fn buffers(&mut self) -> Vec<&mut Vec<f64>> {
        self.inner.buffers()
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

impl Model for TracedModel {
    fn predict(&mut self, x: &Tensor) -> Tensor {
        self.inner.predict(x)
    }

    fn deepen(&mut self) -> bool {
        self.inner.deepen()
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(TracedModel {
            inner: self.inner.clone_model(),
            rec: Arc::clone(&self.rec),
            infer_parent: Arc::clone(&self.infer_parent),
        })
    }

    fn spatial_align(&self) -> usize {
        self.inner.spatial_align()
    }

    fn predict_slab(&mut self, slab: &Tensor, comm: &dyn Comm) -> Option<Tensor> {
        self.inner.predict_slab(slab, comm)
    }

    fn share(&self) -> Option<Arc<dyn InferModel>> {
        let inner = self.inner.share()?;
        Some(Arc::new(TracedInfer {
            inner,
            rec: Arc::clone(&self.rec),
            parent: Arc::clone(&self.infer_parent),
        }))
    }

    fn share_f32(&self) -> Option<Arc<dyn InferModel<f32>>> {
        self.inner.share_f32()
    }

    fn share_slab(&self) -> Option<Arc<dyn SlabModel>> {
        self.inner.share_slab()
    }

    fn share_slab_f32(&self) -> Option<Arc<dyn SlabModel<f32>>> {
        self.inner.share_slab_f32()
    }
}

/// The serving view of a [`TracedModel`]: each inference call is an
/// `nn.infer` span, parented to the span id stored in `parent` (the
/// serving phase the benchmark is running) since queue workers run on
/// threads the benchmark does not own.
pub struct TracedInfer {
    pub inner: Arc<dyn InferModel>,
    pub rec: Arc<Recorder>,
    pub parent: Arc<AtomicU64>,
}

impl InferModel for TracedInfer {
    fn infer(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let parent = match self.parent.load(Ordering::Relaxed) {
            0 => None,
            id => Some(id),
        };
        self.rec
            .span_under("nn.infer", parent, None, || self.inner.infer(x, ws))
    }
}

/// An [`Optimizer`] whose update steps are spans.
pub struct TracedOpt {
    pub inner: Box<dyn Optimizer>,
    pub rec: Arc<Recorder>,
}

impl Optimizer for TracedOpt {
    fn step(&mut self, params: &mut [&mut Param]) {
        let inner = &mut self.inner;
        self.rec.span("nn.optim_step", None, || inner.step(params))
    }

    fn learning_rate(&self) -> f64 {
        self.inner.learning_rate()
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.inner.set_learning_rate(lr)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn clone_optimizer(&self) -> Box<dyn Optimizer> {
        Box::new(TracedOpt {
            inner: self.inner.clone_optimizer(),
            rec: Arc::clone(&self.rec),
        })
    }
}

/// Per-rank communication counters.
#[derive(Debug, Default)]
pub struct CommCounters {
    pub allreduce_calls: AtomicU64,
    pub allreduce_bytes: AtomicU64,
    pub msgs_sent: AtomicU64,
    pub bytes_sent: AtomicU64,
}

/// A [`Comm`] whose collectives and blocking receives are spans, with
/// call and byte counts.
pub struct TracedComm<C: Comm> {
    pub inner: C,
    pub rec: Arc<Recorder>,
    pub counters: Arc<CommCounters>,
}

impl<C: Comm> TracedComm<C> {
    fn count_allreduce(&self, len: usize) {
        self.counters
            .allreduce_calls
            .fetch_add(1, Ordering::Relaxed);
        self.counters
            .allreduce_bytes
            .fetch_add(8 * len as u64, Ordering::Relaxed);
    }
}

impl<C: Comm> Comm for TracedComm<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn allreduce_sum(&self, buf: &mut [f64]) {
        self.count_allreduce(buf.len());
        self.rec
            .span("dist.allreduce", None, || self.inner.allreduce_sum(buf))
    }

    fn allreduce_max(&self, buf: &mut [f64]) {
        self.count_allreduce(buf.len());
        self.rec
            .span("dist.allreduce", None, || self.inner.allreduce_max(buf))
    }

    fn broadcast(&self, root: usize, buf: &mut [f64]) {
        self.rec
            .span("dist.broadcast", None, || self.inner.broadcast(root, buf))
    }

    fn barrier(&self) {
        self.rec.span("dist.barrier", None, || self.inner.barrier())
    }

    fn send(&self, to: usize, tag: u64, data: Vec<f64>) {
        self.counters.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_sent
            .fetch_add(8 * data.len() as u64, Ordering::Relaxed);
        self.inner.send(to, tag, data)
    }

    fn recv(&self, from: usize, tag: u64) -> Vec<f64> {
        self.rec
            .span("dist.halo_wait", None, || self.inner.recv(from, tag))
    }
}
