//! Slab-decomposed (spatial model-parallel) U-Net inference.
//!
//! The paper's §5 outlook — "scaling beyond megavoxels to gigavoxels" via
//! "model-parallel distributed deep learning" — needs the *network*, not
//! just the FEM solver, to run without any rank ever materializing a
//! full-resolution activation. This module implements that forward path:
//! the input field is carved into `p` contiguous slabs along its slowest
//! non-unit spatial axis (depth for 3D problems, height for 2D), each rank
//! walks the whole U-Net on its slab, and thin halo planes are exchanged
//! over a [`Comm`] right before every stencil application.
//!
//! ## Halo-width rule
//!
//! Only the `same`-padded stencil convolutions couple neighbouring planes
//! along the split axis, and their reach is exactly the padding `(k-1)/2`
//! — one plane for the U-Net's 3×3×3 blocks. [`infer_slab`] therefore
//! exchanges one halo plane per side before each `Conv3d` (encoder,
//! bottleneck and merge blocks) and computes **only the owned output
//! planes** through the restricted implicit-GEMM lowering
//! ([`Conv3d::infer_planes_into`]). Every owned output element then sees
//! exactly the operand values the serial pass sees, in the same
//! accumulation order, so the assembled result is **bitwise identical** to
//! the serial forward at any rank count. All other layers are local:
//! `MaxPool3d`/`ConvTranspose3d` with `k = s = 2` never straddle a cut
//! (see the alignment rule), batch norm at inference is a per-channel
//! affine map from running statistics, activations are pointwise, and the
//! 1×1×1 head has zero reach.
//!
//! ## Halo/compute overlap
//!
//! With [`SlabOpts::overlap`] (the default), each halo conv posts its
//! boundary planes ([`mgd_dist::exchange_post`]) and immediately computes
//! the *interior* output planes from the unextended local slab — those
//! planes read only owned input (plus the true zero padding on domain-edge
//! ranks), so no copy into a halo-extended buffer is needed and the bits
//! match the serial pass. When the neighbour planes arrive, the two
//! boundary row-bands are computed from thin `3·halo`-plane band tensors
//! and written into the same output. This removes the full-slab
//! extend-copy from the critical path (the dominant overhead of the
//! non-overlapped walk) and lets the interior GEMM run while planes are in
//! flight on true multi-worker transports. Slabs shallower than `2·halo`
//! planes at some level fall back to the classic extend-then-restrict
//! exchange, which remains bitwise identical.
//!
//! ## Pool-alignment rule
//!
//! Slab sizes must be positive multiples of `2^depth` along the split
//! axis ([`mgd_dist::SlabPartition::aligned`]) so that every factor-2
//! pool/upsample boundary at every level lands on a slab cut; the slab
//! then stays a whole number of (even) planes at all `depth + 1` levels
//! and pooling/upsampling remain rank-local. Violations are caught as
//! typed errors at engine-build time, and [`infer_slab`] re-asserts
//! them defensively.
//!
//! ## Out-of-core streaming
//!
//! With [`SlabOpts::spill_dir`] set, each encoder skip tensor is written
//! to a scratch file the moment it is produced and read back right before
//! the decoder concatenates it — the skips are exactly the long-lived
//! half of the forward's footprint, so spilling them caps the per-rank
//! resident set near the largest single-level working set and lets a rank
//! serve slabs whose full activation ladder would not fit in memory.
//! Spill files round-trip bit-exactly (wire-format packing), so results
//! are unchanged, and the I/O streams through bounded ~8 MiB chunk
//! buffers on both the write and read side — the read side decodes
//! straight into the decoder's concat buffer — so spilling never adds a
//! tensor-sized transient of its own.
//!
//! Per-rank activation memory is modeled by [`activation_peak_elems_opts`]
//! (live-tensor peak, per mode); each walk also meters its live
//! activations on the rank's [`Workspace`]
//! ([`Workspace::measured_peak_elems`]) so serving harnesses can check the
//! model against reality.

use crate::conv::Conv3d;
use crate::layer::Dims5;
use crate::unet::{concat_channels, ConvBlock, UNet, UNetConfig};
use crate::workspace::{PeakMeter, Workspace};
use mgd_dist::{
    carve_planes, exchange_extend, exchange_post, place_planes, Comm, HaloElement, SlabLayout,
};
use mgd_tensor::{GemmElement, Tensor};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Which NCDHW axis a spatial decomposition splits.
///
/// 3D problems split the depth (z) axis; 2D problems — whose tensors carry
/// a unit depth axis — split the height axis. Both map onto the same
/// `[pre, split, post]` plane arithmetic of [`mgd_dist::halo`] and the
/// same flattened `(o_d, o_h)` anchor-row ranges of the GEMM lowering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitAxis {
    /// Split along the depth axis (3D problems).
    Depth,
    /// Split along the height axis (2D problems; requires `d == 1`).
    Height,
}

impl SplitAxis {
    /// The `[pre, split, post]` view of an NCDHW tensor split along this
    /// axis.
    pub fn layout(&self, d: &Dims5) -> SlabLayout {
        match self {
            SplitAxis::Depth => SlabLayout {
                pre: d.n * d.c,
                split: d.d,
                post: d.h * d.w,
            },
            SplitAxis::Height => {
                assert_eq!(d.d, 1, "height split needs a unit depth axis");
                SlabLayout {
                    pre: d.n * d.c,
                    split: d.h,
                    post: d.w,
                }
            }
        }
    }

    /// Extent of the split axis in `d`.
    pub fn extent(&self, d: &Dims5) -> usize {
        match self {
            SplitAxis::Depth => d.d,
            SplitAxis::Height => d.h,
        }
    }
}

impl UNet {
    /// The axis [`infer_slab`] splits for this architecture.
    pub fn split_axis(&self) -> SplitAxis {
        if self.cfg.two_d {
            SplitAxis::Height
        } else {
            SplitAxis::Depth
        }
    }
}

impl<E: mgd_tensor::Element> UNet<E> {
    /// [`UNet::split_axis`], available at any inference element type.
    pub fn split_axis_of(&self) -> SplitAxis {
        if self.cfg.two_d {
            SplitAxis::Height
        } else {
            SplitAxis::Depth
        }
    }
}

/// Tuning knobs of the slab-decomposed forward. All settings preserve the
/// bitwise (at `f64`) equivalence with the serial forward — they trade
/// memory and latency, never values.
#[derive(Clone, Debug)]
pub struct SlabOpts {
    /// Post halo sends and compute interior planes while the neighbour
    /// planes are in flight (default `true`); `false` restores the
    /// extend-then-restrict exchange on every conv.
    pub overlap: bool,
    /// When set, encoder skip tensors are spilled to scratch files in this
    /// directory and re-loaded by the decoder — the out-of-core streaming
    /// mode for domains whose activation ladder exceeds memory.
    pub spill_dir: Option<PathBuf>,
}

impl Default for SlabOpts {
    fn default() -> Self {
        SlabOpts {
            overlap: true,
            spill_dir: None,
        }
    }
}

/// Halo width and owned split extent of a `same` stencil conv on `d`.
fn conv_halo<E: mgd_tensor::Element>(
    conv: &Conv3d<E>,
    d: &Dims5,
    axis: SplitAxis,
) -> (usize, usize) {
    match axis {
        SplitAxis::Depth => {
            assert_eq!(conv.stride.0, 1, "spatial split needs stride 1 along depth");
            assert_eq!(
                conv.kernel.0,
                2 * conv.padding.0 + 1,
                "spatial split needs a symmetric same-conv along depth"
            );
            (conv.padding.0, d.d)
        }
        SplitAxis::Height => {
            assert_eq!(d.d, 1, "height split needs a unit depth axis");
            assert_eq!(
                conv.stride.1, 1,
                "spatial split needs stride 1 along height"
            );
            assert_eq!(
                conv.kernel.1,
                2 * conv.padding.1 + 1,
                "spatial split needs a symmetric same-conv along height"
            );
            (conv.padding.1, d.h)
        }
    }
}

/// Builds the `3·halo`-plane boundary band: `recv` planes on the domain
/// side plus the `2·halo` nearest owned planes of `x`.
fn band_tensor<E: GemmElement>(
    x: &Tensor<E>,
    layout: &SlabLayout,
    axis: SplitAxis,
    d: &Dims5,
    halo: usize,
    recv: &[E],
    recv_below: bool,
) -> Tensor<E> {
    let own = layout.split;
    let band_layout = layout.with_split(3 * halo);
    let mut data = vec![E::ZERO; band_layout.len()];
    if recv_below {
        let own_planes = carve_planes(x.as_slice(), layout, 0, 2 * halo);
        place_planes(&mut data, &band_layout, 0, recv);
        place_planes(&mut data, &band_layout, halo, &own_planes);
    } else {
        let own_planes = carve_planes(x.as_slice(), layout, own - 2 * halo, own);
        place_planes(&mut data, &band_layout, 0, &own_planes);
        place_planes(&mut data, &band_layout, 2 * halo, recv);
    }
    let dims = match axis {
        SplitAxis::Depth => vec![d.n, d.c, 3 * halo, d.h, d.w],
        SplitAxis::Height => vec![d.n, d.c, 1, 3 * halo, d.w],
    };
    Tensor::from_vec(dims, data)
}

/// Exchanges the conv's halo planes with ring neighbours and computes the
/// owned output planes of a `same` stencil convolution — overlapping the
/// interior compute with the in-flight planes when enabled.
#[allow(clippy::too_many_arguments)]
fn halo_conv_infer<E: GemmElement + HaloElement>(
    conv: &Conv3d<E>,
    x: &Tensor<E>,
    comm: &dyn Comm,
    axis: SplitAxis,
    tag: &mut u64,
    ws: &mut Workspace<E>,
    opts: &SlabOpts,
) -> Tensor<E> {
    let d = Dims5::of(x);
    let (halo, own) = conv_halo(conv, &d, axis);
    if comm.size() == 1 || halo == 0 {
        // No neighbours (or no reach): the slab is self-contained.
        let y = conv.infer(x, ws);
        ws.meter.alloc(y.len());
        return y;
    }
    let t = *tag;
    *tag += 2;
    let layout = axis.layout(&d);
    if opts.overlap && own >= 2 * halo {
        // Post the boundary planes, then compute the interior while they
        // are in flight. Interior output planes `lo..own-hi` read only
        // owned input planes (plus the true domain padding on edge
        // ranks), so the unextended slab yields serial-identical bits.
        let pending = exchange_post(comm, x.as_slice(), &layout, halo, t);
        let (lo, hi) = (pending.lo, pending.hi);
        let odims = match axis {
            SplitAxis::Depth => vec![d.n, conv.out_c, own, d.h, d.w],
            SplitAxis::Height => vec![d.n, conv.out_c, 1, own, d.w],
        };
        let mut y: Tensor<E> = Tensor::zeros(odims);
        ws.meter.alloc(y.len());
        conv.infer_planes_into(x, lo..own - hi, axis, &mut y, lo, ws);
        // Boundary bands on arrival: each band input is the received halo
        // plus the 2·halo nearest owned planes, and its `halo..2·halo`
        // output planes never read the band's artificial zero padding —
        // bitwise equal to the serial planes they fill in.
        let (below, above) = pending.finish(comm);
        if let Some(below) = below {
            let band = band_tensor(x, &layout, axis, &d, halo, &below, true);
            ws.meter.alloc(band.len());
            conv.infer_planes_into(&band, halo..2 * halo, axis, &mut y, 0, ws);
            ws.meter.free(band.len());
        }
        if let Some(above) = above {
            let band = band_tensor(x, &layout, axis, &d, halo, &above, false);
            ws.meter.alloc(band.len());
            conv.infer_planes_into(&band, halo..2 * halo, axis, &mut y, own - halo, ws);
            ws.meter.free(band.len());
        }
        return y;
    }
    // Fallback (overlap disabled, or the slab is shallower than 2·halo at
    // this level): classic extend-then-restrict exchange.
    let ext = exchange_extend(comm, x.as_slice(), &layout, halo, t);
    let (lo, hi) = (ext.lo, ext.hi);
    let ext_dims = match axis {
        SplitAxis::Depth => vec![d.n, d.c, lo + d.d + hi, d.h, d.w],
        SplitAxis::Height => vec![d.n, d.c, 1, lo + d.h + hi, d.w],
    };
    let x_ext = Tensor::from_vec(ext_dims, ext.data);
    ws.meter.alloc(x_ext.len());
    let y = conv.infer_planes(&x_ext, lo..lo + own, axis, ws);
    ws.meter.alloc(y.len());
    ws.meter.free(x_ext.len());
    y
}

/// One Conv → (BatchNorm) → LeakyReLU block with halo exchange before the
/// stencil. Batch norm runs in inference mode (running statistics — a
/// rank-local per-channel affine map), so no cross-rank statistics are
/// needed.
#[allow(clippy::too_many_arguments)]
fn halo_block_infer<E: GemmElement + HaloElement>(
    block: &ConvBlock<E>,
    x: Tensor<E>,
    comm: &dyn Comm,
    axis: SplitAxis,
    tag: &mut u64,
    ws: &mut Workspace<E>,
    opts: &SlabOpts,
) -> Tensor<E> {
    let mut h = halo_conv_infer(&block.conv, &x, comm, axis, tag, ws, opts);
    // The input is dead once the stencil has consumed it; dropping it here
    // (instead of after the block returns) keeps the fused bn/act pass
    // from holding input + conv output resident at once.
    ws.meter.free(x.len());
    drop(x);
    // Batch norm + activation fused into one in-place walk over the conv
    // output — bitwise identical to the two-tensor pipeline, but with no
    // extra allocations and two fewer full read/write passes per block.
    block.finish_inplace(&mut h);
    h
}

/// Monotone spill-file nonce, so concurrent walks sharing one scratch dir
/// never collide.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// An encoder skip tensor awaiting its decoder level: resident in memory,
/// or spilled to a scratch file (out-of-core streaming mode).
enum Skip<E: mgd_tensor::Element> {
    Resident(Tensor<E>),
    Spilled { path: PathBuf, dims: Vec<usize> },
}

/// Elements per spill I/O chunk. Spill files are written and read as a
/// sequence of independently wire-packed chunks of this many elements, so
/// the transient pack/unpack buffers stay bounded (~8 MiB of wire words)
/// no matter how large the skip tensor is — a whole-payload `Vec` here
/// would silently add a full tensor-size resident spike per rank that the
/// activation meter never sees. Even, so f32 pair-packing never splits a
/// wire word across chunks.
const SPILL_CHUNK_ELEMS: usize = 1 << 20;

/// Writes `vals` to `w` as chunked wire words (see [`SPILL_CHUNK_ELEMS`]).
fn write_spill_stream<E: HaloElement>(w: &mut impl Write, vals: &[E], path: &Path) {
    let mut bytes = Vec::with_capacity(8 * E::wire_words(SPILL_CHUNK_ELEMS.min(vals.len())));
    for chunk in vals.chunks(SPILL_CHUNK_ELEMS) {
        let wire = E::pack_wire(chunk);
        bytes.clear();
        for word in &wire {
            bytes.extend_from_slice(&word.to_bits().to_le_bytes());
        }
        w.write_all(&bytes)
            .unwrap_or_else(|e| panic!("skip spill to {} failed: {e}", path.display()));
    }
}

/// Fills `out` from `r`, expecting the chunked wire layout written by
/// [`write_spill_stream`] for a payload of exactly `out.len()` elements.
fn read_spill_stream<E: HaloElement>(r: &mut impl Read, out: &mut [E], path: &Path) {
    let mut bytes = vec![0u8; 8 * E::wire_words(SPILL_CHUNK_ELEMS.min(out.len().max(1)))];
    let mut wire = Vec::with_capacity(E::wire_words(SPILL_CHUNK_ELEMS.min(out.len().max(1))));
    for chunk in out.chunks_mut(SPILL_CHUNK_ELEMS) {
        let nbytes = 8 * E::wire_words(chunk.len());
        r.read_exact(&mut bytes[..nbytes])
            .unwrap_or_else(|e| panic!("skip load from {} failed: {e}", path.display()));
        wire.clear();
        wire.extend(
            bytes[..nbytes]
                .chunks_exact(8)
                .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap()))),
        );
        chunk.copy_from_slice(&E::unpack_wire(&wire, chunk.len()));
    }
}

impl<E: GemmElement + HaloElement> Skip<E> {
    /// Streams `h` to a scratch file via the bit-exact wire packing,
    /// holding only one bounded chunk buffer beyond the tensor itself.
    fn spill(h: &Tensor<E>, dir: &Path, rank: usize) -> Self {
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("mgd-skip-r{rank}-{seq}.bin"));
        let file = std::fs::File::create(&path)
            .unwrap_or_else(|e| panic!("skip spill to {} failed: {e}", path.display()));
        let mut w = std::io::BufWriter::new(file);
        write_spill_stream(&mut w, h.as_slice(), &path);
        w.flush()
            .unwrap_or_else(|e| panic!("skip spill to {} failed: {e}", path.display()));
        Skip::Spilled {
            path,
            dims: h.dims().to_vec(),
        }
    }
}

/// Concatenates `h` with a skip along the channel axis, consuming the skip.
///
/// The streaming (spilled) arm keeps the peak at `h + cat` / `cat + skip`
/// instead of `h + skip + cat`: `h`'s channels are copied into the concat
/// buffer and freed *before* the skip is read back from scratch, so the
/// upsampled field and the skip are never resident together.
fn concat_skip<E: GemmElement + HaloElement>(
    h: Tensor<E>,
    skip: Skip<E>,
    meter: &mut PeakMeter,
) -> Tensor<E> {
    match skip {
        Skip::Resident(s) => {
            let cat = concat_channels(&h, &s);
            meter.alloc(cat.len());
            meter.free(s.len());
            meter.free(h.len());
            cat
        }
        Skip::Spilled { path, dims } => {
            let dh = Dims5::of(&h);
            assert_eq!(dims.len(), 5);
            let (sc, sd, shh, sw) = (dims[1], dims[2], dims[3], dims[4]);
            assert_eq!(
                (dh.n, dh.d, dh.h, dh.w),
                (dims[0], sd, shh, sw),
                "spatial/batch mismatch with spilled skip"
            );
            let vol = dh.vol();
            let mut cat: Tensor<E> = Tensor::zeros([dh.n, dh.c + sc, dh.d, dh.h, dh.w]);
            meter.alloc(cat.len());
            {
                let (hsl, osl) = (h.as_slice(), cat.as_mut_slice());
                for n in 0..dh.n {
                    let o_base = n * (dh.c + sc) * vol;
                    osl[o_base..o_base + dh.c * vol]
                        .copy_from_slice(&hsl[n * dh.c * vol..(n + 1) * dh.c * vol]);
                }
            }
            meter.free(h.len());
            drop(h);
            // Stream the spilled skip straight into `cat`'s tail channels,
            // one bounded chunk at a time — the skip tensor itself is never
            // re-materialized. Chunk boundaries follow the writer's layout
            // (multiples of SPILL_CHUNK_ELEMS in source index space), so
            // each read decodes exactly one written chunk.
            let file = std::fs::File::open(&path)
                .unwrap_or_else(|e| panic!("skip load from {} failed: {e}", path.display()));
            let mut r = std::io::BufReader::new(file);
            let total: usize = dims.iter().product();
            let batch_elems = sc * vol;
            let mut buf = vec![E::default(); SPILL_CHUNK_ELEMS.min(total)];
            meter.alloc(buf.len());
            let mut src = 0usize;
            while src < total {
                let len = SPILL_CHUNK_ELEMS.min(total - src);
                read_spill_stream(&mut r, &mut buf[..len], &path);
                let osl = cat.as_mut_slice();
                let mut off = 0usize;
                while off < len {
                    let gidx = src + off;
                    let (n, bo) = (gidx / batch_elems, gidx % batch_elems);
                    let run = (batch_elems - bo).min(len - off);
                    let o_base = n * (dh.c + sc) * vol + dh.c * vol + bo;
                    osl[o_base..o_base + run].copy_from_slice(&buf[off..off + run]);
                    off += run;
                }
                src += len;
            }
            meter.free(buf.len());
            drop(r);
            let _ = std::fs::remove_file(&path);
            cat
        }
    }
}

/// Slab-decomposed inference forward of the U-Net (see the module docs).
///
/// `slab` is this rank's contiguous slab of the NCDHW input along the
/// split axis; its split extent must be a positive multiple of `2^depth`
/// (the pool-alignment rule). Every rank of `comm` must call this
/// collectively against identically-configured models (shared or
/// replicated — the network is only read). Returns the owned slab of the
/// output — stitching the rank-ordered results yields a field bitwise
/// identical (at `f64`) to the serial forward on the full input, for
/// every [`SlabOpts`] setting.
pub fn infer_slab<E: GemmElement + HaloElement>(
    net: &UNet<E>,
    slab: &Tensor<E>,
    comm: &dyn Comm,
    ws: &mut Workspace<E>,
    opts: &SlabOpts,
) -> Tensor<E> {
    let axis = net.split_axis_of();
    let d = Dims5::of(slab);
    // The slab must survive `depth` poolings on its own: this is exactly
    // the per-rank pool-alignment rule (engine-validated; re-checked here).
    net.check_input_dims(&d);
    let depth = net.cfg.depth;
    let mut tag = 0u64;
    ws.meter.begin();
    let mut h = slab.clone();
    ws.meter.alloc(h.len());
    let mut skips: Vec<Skip<E>> = Vec::with_capacity(depth);
    for i in 0..depth {
        h = halo_block_infer(&net.enc[i], h, comm, axis, &mut tag, ws, opts);
        match &opts.spill_dir {
            // Streaming mode: the skip goes to scratch now and comes back
            // right before its decoder level — no resident copy retained.
            Some(dir) => skips.push(Skip::spill(&h, dir, comm.rank())),
            None => {
                skips.push(Skip::Resident(h.clone()));
                ws.meter.alloc(h.len());
            }
        }
        let pooled = net.pools[i].infer(&h);
        ws.meter.alloc(pooled.len());
        ws.meter.free(h.len());
        h = pooled;
    }
    h = halo_block_infer(&net.bottleneck, h, comm, axis, &mut tag, ws, opts);
    for i in (0..depth).rev() {
        let up = net.ups[i].infer(&h, ws);
        ws.meter.alloc(up.len());
        ws.meter.free(h.len());
        h = up;
        // Consume (not borrow) the skip so its slab is freed immediately —
        // the decoder's contribution to the per-rank memory bound.
        let skip = skips.pop().expect("one skip per level");
        h = concat_skip(h, skip, &mut ws.meter);
        h = halo_block_infer(&net.merges[i], h, comm, axis, &mut tag, ws, opts);
    }
    let head = net.head.infer(&h, ws);
    ws.meter.alloc(head.len());
    ws.meter.free(h.len());
    h = head;
    if let Some(s) = &net.sigmoid {
        let out = s.infer(&h);
        ws.meter.alloc(out.len());
        ws.meter.free(h.len());
        h = out;
    }
    h
}

/// Exclusive-reference convenience wrapper over [`infer_slab`] with
/// default options and a fresh workspace — the [`crate::Model`] trait's
/// `predict_slab` hook.
pub fn predict_slab(net: &mut UNet, slab: &Tensor, comm: &dyn Comm) -> Tensor {
    let mut ws = Workspace::new();
    infer_slab(net, slab, comm, &mut ws, &SlabOpts::default())
}

/// Models the peak number of live activation scalars of one rank's
/// [`infer_slab`] walk with **default options** (overlap on, no spill).
/// See [`activation_peak_elems_opts`].
pub fn activation_peak_elems(
    cfg: &UNetConfig,
    batch: usize,
    dims: [usize; 3],
    halo_sides: usize,
) -> usize {
    activation_peak_elems_opts(cfg, batch, dims, halo_sides, &SlabOpts::default())
}

/// Models the peak number of live activation scalars (elements of the
/// inference type) of one rank's [`infer_slab`] walk over a
/// `[batch, in_c, …]` slab with spatial dims `dims` (`[d, h, w]`; use
/// `d = 1` for 2D networks), under the given [`SlabOpts`].
///
/// `halo_sides` is the number of neighbours exchanging halos with this
/// rank (0 for a serial/full-field forward, 1 for edge ranks, 2 for
/// interior ranks). The model counts the tensors the forward holds alive
/// simultaneously (input, conv output, halo planes or extended copy per
/// the overlap mode, retained or transiently-loaded skips per the spill
/// mode) level by level; it is an activation model, not an allocator
/// trace — weights, GEMM scratch and the assembled I/O fields are
/// excluded. Multiply by the element byte width for bytes. The walk's
/// instrumented counterpart is [`Workspace::measured_peak_elems`], which
/// never exceeds this model.
pub fn activation_peak_elems_opts(
    cfg: &UNetConfig,
    batch: usize,
    dims: [usize; 3],
    halo_sides: usize,
    opts: &SlabOpts,
) -> usize {
    let [d0, h0, w0] = dims;
    assert!(!cfg.two_d || d0 == 1, "2D networks take a unit depth axis");
    let depth = cfg.depth;
    let spill = opts.spill_dir.is_some();
    let split0 = if cfg.two_d { h0 } else { d0 };
    // Spatial volume and per-plane (split-axis) volume at level l.
    let vol = |l: usize| -> usize {
        if cfg.two_d {
            (h0 >> l) * (w0 >> l)
        } else {
            (d0 >> l) * (h0 >> l) * (w0 >> l)
        }
    };
    let plane = |l: usize| -> usize {
        if cfg.two_d {
            w0 >> l
        } else {
            (h0 >> l) * (w0 >> l)
        }
    };
    let halo = |c: usize, l: usize| batch * c * halo_sides * plane(l);
    let t = |c: usize, l: usize| batch * c * vol(l);
    let ch = |i: usize| cfg.channels(i);

    let mut peak = 0usize;
    let mut skips = 0usize;
    let mut live = t(cfg.in_channels, 0);
    peak = peak.max(live);
    // One conv block. Overlapped halo (taken whenever the level's slab is
    // at least 2 planes deep — halo width 1): x + out + received planes +
    // one transient 3-plane boundary band, no extended copy. Fallback:
    // x + halo-extended copy + out. Then bn/act briefly double the output.
    macro_rules! block {
        ($c_in:expr, $c_out:expr, $l:expr) => {{
            let out = t($c_out, $l);
            let overlapped = opts.overlap && halo_sides > 0 && (split0 >> $l) >= 2;
            if overlapped {
                let band = 3 * batch * $c_in * plane($l);
                peak = peak.max(skips + live + out + halo($c_in, $l) + band);
            } else {
                peak = peak.max(skips + 2 * live + halo($c_in, $l) + out);
            }
            peak = peak.max(skips + 2 * out);
            live = out;
        }};
    }
    for i in 0..depth {
        let c_in = if i == 0 { cfg.in_channels } else { ch(i - 1) };
        block!(c_in, ch(i), i);
        if !spill {
            skips += live; // skip clone retained until the decoder consumes it
        }
        let pooled = t(ch(i), i + 1);
        peak = peak.max(skips + live + pooled);
        live = pooled;
    }
    block!(ch(depth - 1), ch(depth), depth);
    for i in (0..depth).rev() {
        let up = t(ch(i), i);
        peak = peak.max(skips + live + up);
        live = up;
        let skip_sz = t(ch(i), i);
        let cat = t(2 * ch(i), i);
        if spill {
            // Streaming concat: `h` is copied into the concat buffer and
            // freed before the skip is read back, so the two phases are
            // `h + cat` then `cat + skip` — never all three at once.
            peak = peak.max(skips + live + cat).max(skips + cat + skip_sz);
        } else {
            peak = peak.max(skips + live + cat);
            skips -= skip_sz; // skip freed right after concat
        }
        live = cat;
        block!(2 * ch(i), ch(i), i);
    }
    let head = t(cfg.out_channels, 0);
    peak = peak.max(live + 2 * head); // head output + sigmoid output
    peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use mgd_dist::{carve_planes, SlabPartition};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn net(two_d: bool, depth: usize, seed: u64) -> UNet {
        UNet::new(UNetConfig {
            depth,
            base_filters: 2,
            two_d,
            seed,
            ..Default::default()
        })
    }

    fn spill_dir() -> PathBuf {
        let dir = std::env::temp_dir().join("mgd-spatial-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spatial_matches_serial(
        two_d: bool,
        depth: usize,
        dims: [usize; 3],
        p: usize,
        opts: &SlabOpts,
    ) -> usize {
        let mut reference = net(two_d, depth, 42);
        let mut rng = StdRng::seed_from_u64(7);
        let x = Tensor::rand_uniform(vec![2, 1, dims[0], dims[1], dims[2]], -1.0, 1.0, &mut rng);
        let serial = reference.predict(&x);
        let d5 = Dims5::of(&x);
        let axis = reference.split_axis();
        let extent = axis.extent(&d5);
        let part = SlabPartition::aligned(extent, p, 1 << depth).unwrap();
        let layout = axis.layout(&d5);
        let shared = Arc::new(net(two_d, depth, 42));
        let jobs: Vec<(Tensor, std::ops::Range<usize>)> = (0..p)
            .map(|r| {
                let owned = part.owned_planes(r);
                let data = carve_planes(x.as_slice(), &layout, owned.start, owned.end);
                let sdims = match axis {
                    SplitAxis::Depth => vec![2, 1, owned.len(), dims[1], dims[2]],
                    SplitAxis::Height => vec![2, 1, 1, owned.len(), dims[2]],
                };
                (Tensor::from_vec(sdims, data), owned)
            })
            .collect();
        let results = mgd_dist::launch_with(jobs, |comm, (slab, owned)| {
            let mut ws = Workspace::new();
            let out = infer_slab(&shared, &slab, &comm, &mut ws, opts);
            (owned, out, ws.measured_peak_elems())
        });
        // Stitch owned output slabs and compare bitwise.
        let out_layout = axis.layout(&Dims5::of(&serial));
        let mut peak = 0;
        for (owned, out, rank_peak) in results {
            peak = peak.max(rank_peak);
            let expect = carve_planes(serial.as_slice(), &out_layout, owned.start, owned.end);
            assert_eq!(out.as_slice().len(), expect.len());
            for (i, (a, b)) in out.as_slice().iter().zip(&expect).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "two_d={two_d} depth={depth} p={p} opts={opts:?} owned={owned:?} \
                     elem {i}: {a} vs {b}"
                );
            }
        }
        peak
    }

    #[test]
    fn spatial_forward_is_bitwise_serial_2d() {
        for p in [2usize, 3, 4] {
            spatial_matches_serial(true, 2, [1, 16, 12], p, &SlabOpts::default());
        }
    }

    #[test]
    fn spatial_forward_is_bitwise_serial_3d() {
        for p in [2usize, 3] {
            spatial_matches_serial(false, 1, [8, 8, 4], p, &SlabOpts::default());
            spatial_matches_serial(false, 2, [16, 8, 4], p, &SlabOpts::default());
        }
    }

    #[test]
    fn overlap_off_is_bitwise_serial_too() {
        let opts = SlabOpts {
            overlap: false,
            ..Default::default()
        };
        spatial_matches_serial(true, 2, [1, 16, 12], 3, &opts);
        spatial_matches_serial(false, 2, [16, 8, 4], 2, &opts);
    }

    #[test]
    fn skip_spill_is_bitwise_serial() {
        let opts = SlabOpts {
            spill_dir: Some(spill_dir()),
            ..Default::default()
        };
        spatial_matches_serial(false, 2, [16, 8, 4], 2, &opts);
        spatial_matches_serial(true, 2, [1, 16, 12], 4, &opts);
    }

    /// The chunked spill stream must round-trip bit-exactly across chunk
    /// boundaries — including an f32 payload whose ragged tail leaves a
    /// half-empty wire word — using only bounded buffers.
    #[test]
    fn spill_stream_roundtrips_across_chunk_boundaries() {
        fn roundtrip<E: HaloElement + PartialEq + std::fmt::Debug>(vals: &[E]) {
            let path = Path::new("spill-stream-roundtrip");
            let mut file = Vec::new();
            write_spill_stream(&mut file, vals, path);
            assert_eq!(
                file.len(),
                8 * E::wire_words(SPILL_CHUNK_ELEMS) * (vals.len() / SPILL_CHUNK_ELEMS)
                    + 8 * E::wire_words(vals.len() % SPILL_CHUNK_ELEMS)
            );
            let mut out = vec![E::default(); vals.len()];
            read_spill_stream(&mut file.as_slice(), &mut out, path);
            assert_eq!(out, vals);
        }
        // 2.5 chunks of f64 with a signed zero on a chunk boundary.
        let mut v64: Vec<f64> = (0..SPILL_CHUNK_ELEMS * 2 + SPILL_CHUNK_ELEMS / 2 + 3)
            .map(|i| (i as f64).sin())
            .collect();
        v64[SPILL_CHUNK_ELEMS] = -0.0;
        roundtrip(&v64);
        // Odd-length f32: the last wire word carries one value.
        let v32: Vec<f32> = (0..SPILL_CHUNK_ELEMS + 7)
            .map(|i| (i as f32).cos())
            .collect();
        roundtrip(&v32);
        // NaN payload bits must survive the stream (compared as bits —
        // NaN != NaN under PartialEq).
        v64[1] = f64::from_bits(0x7ff8_0000_0000_1234);
        let mut back = vec![0.0f64; v64.len()];
        let mut file = Vec::new();
        write_spill_stream(&mut file, &v64, Path::new("bits"));
        read_spill_stream(&mut file.as_slice(), &mut back, Path::new("bits"));
        let eq = v64
            .iter()
            .zip(&back)
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(eq, "bit patterns must survive the stream");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// The overlapped halo path is bitwise-equal to serial over random
        /// resolution / depth / dimensionality / rank count (satellite
        /// coverage for the overlap rewrite).
        #[test]
        fn overlapped_slab_forward_is_bitwise_serial(
            two_d_bit in 0usize..=1,
            depth in 1usize..=2,
            p in 2usize..=4,
            mult in 1usize..=3,
            cross in 1usize..=3,
            overlap_bit in 0usize..=1,
        ) {
            let (two_d, overlap) = (two_d_bit == 1, overlap_bit == 1);
            // Split extent must admit p aligned slabs: p · mult · 2^depth.
            let split = p * mult * (1 << depth);
            let other = cross * (1 << depth);
            let dims = if two_d { [1, split, other] } else { [split, other, 4] };
            spatial_matches_serial(
                two_d,
                depth,
                dims,
                p,
                &SlabOpts { overlap, ..Default::default() },
            );
        }
    }

    #[test]
    fn single_rank_slab_matches_predict() {
        let mut a = net(false, 2, 5);
        let b = net(false, 2, 5);
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::rand_uniform(vec![1, 1, 8, 8, 8], -1.0, 1.0, &mut rng);
        let serial = a.predict(&x);
        let results = mgd_dist::launch_with(vec![b], |comm, mut replica| {
            predict_slab(&mut replica, &x, &comm)
        });
        assert_eq!(serial.as_slice(), results[0].as_slice());
    }

    #[test]
    fn model_trait_exposes_spatial_hooks() {
        let m: Box<dyn Model> = Box::new(net(true, 2, 3));
        assert_eq!(m.spatial_align(), 4);
        let x = Tensor::zeros([1, 1, 1, 8, 8]);
        let y = mgd_dist::launch_with(vec![m], |comm, mut replica| replica.predict_slab(&x, &comm))
            .pop()
            .unwrap();
        assert!(y.is_some());
    }

    #[test]
    fn activation_model_scales_down_with_slabs() {
        let cfg = UNetConfig {
            depth: 3,
            base_filters: 16,
            ..Default::default()
        };
        let full = activation_peak_elems(&cfg, 1, [64, 64, 64], 0);
        let slab = activation_peak_elems(&cfg, 1, [16, 64, 64], 2);
        assert!(slab < full / 2, "slab {slab} vs full {full}");
        // The halo contribution is visible but small.
        let edge = activation_peak_elems(&cfg, 1, [16, 64, 64], 1);
        assert!(edge <= slab);
    }

    #[test]
    fn activation_model_shrinks_with_overlap_and_spill() {
        let cfg = UNetConfig {
            depth: 3,
            base_filters: 16,
            ..Default::default()
        };
        let legacy = activation_peak_elems_opts(
            &cfg,
            1,
            [16, 64, 64],
            2,
            &SlabOpts {
                overlap: false,
                spill_dir: None,
            },
        );
        let overlapped = activation_peak_elems_opts(&cfg, 1, [16, 64, 64], 2, &SlabOpts::default());
        let streamed = activation_peak_elems_opts(
            &cfg,
            1,
            [16, 64, 64],
            2,
            &SlabOpts {
                overlap: true,
                spill_dir: Some(PathBuf::from("/tmp")),
            },
        );
        assert!(
            overlapped < legacy,
            "overlap drops the extended copy: {overlapped} vs {legacy}"
        );
        assert!(
            streamed < overlapped,
            "spilling skips caps the resident set: {streamed} vs {overlapped}"
        );
    }

    #[test]
    fn measured_peak_stays_within_model() {
        for (opts, label) in [
            (SlabOpts::default(), "overlap"),
            (
                SlabOpts {
                    overlap: false,
                    spill_dir: None,
                },
                "fallback",
            ),
            (
                SlabOpts {
                    overlap: true,
                    spill_dir: Some(spill_dir()),
                },
                "spill",
            ),
        ] {
            // The largest reading over the ranks' own workspaces.
            let measured = spatial_matches_serial(false, 2, [16, 8, 4], 2, &opts);
            // Per-rank slab: 8 planes, interior rank has 2 halo sides.
            let cfg = UNetConfig {
                depth: 2,
                base_filters: 2,
                ..Default::default()
            };
            let model = activation_peak_elems_opts(&cfg, 2, [8, 8, 4], 2, &opts);
            assert!(measured > 0, "{label}: meter did not run");
            assert!(
                measured <= model,
                "{label}: measured {measured} exceeds model {model}"
            );
        }
    }
}
