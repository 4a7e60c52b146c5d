//! Record-once / linearize-once-per-point / sweep-many computation
//! graphs for batched Hessians and matrix-free Hessian-vector products.
//!
//! The tape in [`crate::Tape`] re-traces the monitored function from
//! scratch for every derivative query: a full Hessian via
//! forward-over-reverse costs `d` traces of `f`, each paying `RefCell`
//! borrows, node pushes, and fresh adjoint allocations. For the ADCD-X
//! eigenvalue search — dozens of Hessians or hundreds of
//! Hessian-vector products per full sync — that tracing overhead
//! dominates.
//!
//! A [`GraphWorkspace`] splits a derivative query into three phases,
//! each cached until its inputs change:
//!
//! 1. **Record** the *op structure* of `f` into a flat arena. Done once
//!    per workspace lifetime, or at every new point when the structure
//!    depends on the point (below).
//! 2. **Linearize** at `x`: everything that depends on `x` alone — the
//!    per-node primal values, the local partial primals, which tangent
//!    row each partial reads (including the numbering of the scratch
//!    slots that hold materialized partial tangents), the few extra
//!    primal factors the tangent rules read, and the primal reverse
//!    adjoints, kept as a flat list of reverse accumulations with their
//!    primal halves filled in. Done once per point; the cache key is the
//!    point's exact bits (`f64::to_bits`, so `+0.0` and `-0.0` are
//!    different points) together with the current recording. A
//!    re-record, a dimension change, or any query at another point
//!    replaces the linearization.
//! 3. **Sweep** tangent lanes against that linearization: one
//!    forward pass carrying the seed tangents and one reverse pass
//!    accumulating the adjoint tangents, nothing else. The full Hessian
//!    ([`GraphWorkspace::hessian_into`]) sweeps all `d` unit seeds side
//!    by side ("lanes") straight into a caller-owned matrix; a
//!    Hessian-vector product ([`GraphWorkspace::hvp_into`]) sweeps a
//!    single lane seeded with the direction, at O(graph) cost without
//!    materializing the Hessian — the substrate for the Lanczos eigen
//!    search, which applies `H(x)·v` many times at each probe point.
//!    Only the tangent buffers are reset per sweep, and no allocation
//!    happens once the workspace has warmed up.
//!
//! # Bit-identity contract
//!
//! Results reproduce the tape path **bit for bit**: lane `j` performs
//! exactly the scalar arithmetic that a `Tape<Dual>` run seeded with
//! tangent `e_j` (or `v`) performs, expanded from the `Var<Dual>` token
//! sequences (e.g. division computes `a * (1/b)` with the reciprocal
//! materialized first, because that is what `Var::div` records; a
//! subtraction's right partial carries the `-0.0` tangent of `-one`),
//! and the reverse sweep accumulates adjoints in the same operand order
//! as [`crate::Tape::gradient`]. Splitting the primal work off into the
//! linearization is sound because tangents never feed back into
//! primals, and every tangent expression keeps the tape's token order;
//! the only primal subterms cached across sweeps are ones whose bits
//! cannot change. The tests at the bottom of this file assert exact
//! `f64::to_bits` equality against the tape across op coverage, probe
//! points, several directions per point, and interleaved Hessian/HVP
//! queries; the ADCD pipeline relies on this to keep protocol digests
//! and `Parallelism` settings equivalent.
//!
//! Functions whose recorded structure depends on the evaluation point —
//! `abs`/`max` branches (and thus `relu`/`min`) or data-dependent
//! control flow through [`Scalar::value`] — are detected during
//! recording and re-recorded (then re-linearized) at every new point;
//! everything else is recorded exactly once per workspace lifetime.

use crate::{Scalar, ScalarFn};
use automon_linalg::Matrix;
use std::cell::{Cell, RefCell};
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A graph operand: another node's output or an inline constant.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Operand {
    /// Index of the producing node.
    Var(u32),
    /// A free constant (never differentiated, mirroring constant `Var`s).
    Const(f64),
}

/// One recorded operation. Branches (`abs`, `max`) are resolved at
/// record time: the chosen side is baked into the opcode, which is valid
/// because such a graph is re-recorded at every new evaluation point.
#[derive(Debug, Clone, Copy)]
enum GOp {
    /// An independent input variable.
    Input,
    Add(Operand, Operand),
    Sub(Operand, Operand),
    Mul(Operand, Operand),
    Div(Operand, Operand),
    Neg(Operand),
    Exp(Operand),
    Ln(Operand),
    Tanh(Operand),
    Sin(Operand),
    Cos(Operand),
    Sqrt(Operand),
    Powi(Operand, i32),
    /// `abs` that took the non-negative branch.
    AbsPos(Operand),
    /// `abs` that took the negative branch.
    AbsNeg(Operand),
    /// `max` won by the left operand (ties go left, as in `Var::max`).
    MaxLeft(Operand, Operand),
    /// `max` won by the right operand.
    MaxRight(Operand, Operand),
}

impl GOp {
    /// Whether this op's opcode depends on the evaluation point.
    fn is_branch(&self) -> bool {
        matches!(
            self,
            GOp::AbsPos(_) | GOp::AbsNeg(_) | GOp::MaxLeft(..) | GOp::MaxRight(..)
        )
    }
}

/// Recording arena handed to the generic function body via [`GVar`]s.
struct GraphArena {
    nodes: RefCell<Vec<GOp>>,
    /// Set when user code observed a variable's primal through
    /// [`Scalar::value`] — the graph may then depend on the point through
    /// control flow we cannot see, so it must be re-recorded per point.
    value_observed: Cell<bool>,
}

impl GraphArena {
    fn push(&self, op: GOp) -> u32 {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(op);
        (nodes.len() - 1) as u32
    }

    fn var(&self, v: f64) -> GVar<'_> {
        GVar {
            arena: Some(self),
            idx: self.push(GOp::Input),
            v,
        }
    }
}

/// The recording scalar: carries the `f64` primal (which equals the
/// primal a `Tape<Dual>` run would carry, tangents never feed primals)
/// and appends opcodes to the arena.
struct GVar<'t> {
    arena: Option<&'t GraphArena>,
    idx: u32,
    v: f64,
}

impl Clone for GVar<'_> {
    fn clone(&self) -> Self {
        *self
    }
}
impl Copy for GVar<'_> {}

impl std::fmt::Debug for GVar<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GVar")
            .field("idx", &self.idx)
            .field("v", &self.v)
            .field("const", &self.arena.is_none())
            .finish()
    }
}

impl<'t> GVar<'t> {
    fn operand(&self) -> Operand {
        match self.arena {
            Some(_) => Operand::Var(self.idx),
            None => Operand::Const(self.v),
        }
    }

    /// Record a binary op, or fold to a constant when both operands are
    /// constants (exactly as `Var::binary` falls through to a tapeless
    /// `Var`). `v` must already follow the `Var` primal token sequence.
    fn binary(self, other: Self, v: f64, op: fn(Operand, Operand) -> GOp) -> Self {
        let arena = self.arena.or(other.arena);
        match arena {
            None => GVar {
                arena: None,
                idx: 0,
                v,
            },
            Some(t) => GVar {
                arena: Some(t),
                idx: t.push(op(self.operand(), other.operand())),
                v,
            },
        }
    }

    fn unary(self, v: f64, op: fn(Operand) -> GOp) -> Self {
        match self.arena {
            None => GVar {
                arena: None,
                idx: 0,
                v,
            },
            Some(t) => GVar {
                arena: Some(t),
                idx: t.push(op(Operand::Var(self.idx))),
                v,
            },
        }
    }
}

impl<'t> Add for GVar<'t> {
    type Output = Self;
    fn add(self, o: Self) -> Self {
        self.binary(o, self.v + o.v, GOp::Add)
    }
}

impl<'t> Sub for GVar<'t> {
    type Output = Self;
    fn sub(self, o: Self) -> Self {
        self.binary(o, self.v - o.v, GOp::Sub)
    }
}

impl<'t> Mul for GVar<'t> {
    type Output = Self;
    fn mul(self, o: Self) -> Self {
        self.binary(o, self.v * o.v, GOp::Mul)
    }
}

impl<'t> Div for GVar<'t> {
    type Output = Self;
    fn div(self, o: Self) -> Self {
        // `Var::div` materializes the reciprocal and multiplies —
        // `a * (1/b)` differs from `a / b` in the last ulp, so the primal
        // must mirror it.
        let inv = 1.0 / o.v;
        self.binary(o, self.v * inv, GOp::Div)
    }
}

impl<'t> Neg for GVar<'t> {
    type Output = Self;
    fn neg(self) -> Self {
        self.unary(-self.v, GOp::Neg)
    }
}

impl<'t> Scalar for GVar<'t> {
    fn from_f64(c: f64) -> Self {
        GVar {
            arena: None,
            idx: 0,
            v: c,
        }
    }

    fn value(&self) -> f64 {
        if let Some(t) = self.arena {
            t.value_observed.set(true);
        }
        self.v
    }

    fn exp(self) -> Self {
        self.unary(self.v.exp(), GOp::Exp)
    }

    fn ln(self) -> Self {
        self.unary(self.v.ln(), GOp::Ln)
    }

    fn tanh(self) -> Self {
        self.unary(self.v.tanh(), GOp::Tanh)
    }

    fn sin(self) -> Self {
        self.unary(self.v.sin(), GOp::Sin)
    }

    fn cos(self) -> Self {
        self.unary(self.v.cos(), GOp::Cos)
    }

    fn sqrt(self) -> Self {
        self.unary(self.v.sqrt(), GOp::Sqrt)
    }

    fn powi(self, n: i32) -> Self {
        match self.arena {
            None => GVar {
                arena: None,
                idx: 0,
                v: self.v.powi(n),
            },
            Some(t) => GVar {
                arena: Some(t),
                idx: t.push(GOp::Powi(Operand::Var(self.idx), n)),
                v: self.v.powi(n),
            },
        }
    }

    fn abs(self) -> Self {
        // Branch on the primal exactly like `Var::abs` (which compares
        // `self.v.value() >= 0.0`); NaN takes the negative branch there
        // and here alike.
        if self.v >= 0.0 {
            self.unary(self.v, GOp::AbsPos)
        } else {
            self.unary(-self.v, GOp::AbsNeg)
        }
    }

    fn max(self, other: Self) -> Self {
        if self.v >= other.v {
            self.binary(other, self.v, GOp::MaxLeft)
        } else {
            self.binary(other, other.v, GOp::MaxRight)
        }
    }
}

/// Seed tangents for a sweep: one unit lane per input (full Hessian)
/// or a single lane carrying an arbitrary direction (HVP).
#[derive(Clone, Copy)]
enum Seeds<'a> {
    Unit,
    Vector(&'a [f64]),
}

// Layout of the tangent buffer, in rows of one value per lane: two
// constant rows, one row per node (its value tangent), then the scratch
// slots holding materialized partial tangents (`Div`, `Ln`, `Tanh`, …).
// A local partial's tangent source is a row index into this buffer.

/// The `0.0` tangent of a constant (`Dual::from_f64`, `Add`'s `one`).
const ZERO_ROW: u32 = 0;
/// The `-0.0` tangent of `Sub`'s `-one` (negated zero — the sign
/// matters for bit-identity).
const NEG_ZERO_ROW: u32 = 1;
/// Row of node 0.
const NODE_ROW0: u32 = 2;

/// Operand → primal value (constants carry their own).
fn primal(o: Operand, vals_v: &[f64]) -> f64 {
    match o {
        Operand::Var(k) => vals_v[k as usize],
        Operand::Const(c) => c,
    }
}

/// Operand → tangent row (constants have the zero tangent).
fn row_of(o: Operand) -> u32 {
    match o {
        Operand::Var(k) => NODE_ROW0 + k,
        Operand::Const(_) => ZERO_ROW,
    }
}

/// Operand → (primal, value-tangent lanes). `rows` holds every row
/// before the consuming node's own.
fn res<'a>(o: Operand, vals_v: &[f64], rows: &'a [f64], d: usize) -> (f64, &'a [f64]) {
    let r = row_of(o) as usize;
    (primal(o, vals_v), &rows[r * d..(r + 1) * d])
}

/// The differentiated operands of `op` in the tape's accumulation order:
/// the `self` partial first, then `other`, skipping constants — exactly
/// `Tape::gradient`'s compacted-parent order.
fn parents(op: GOp) -> [Option<u32>; 2] {
    let var = |o: Operand| match o {
        Operand::Var(p) => Some(p),
        Operand::Const(_) => None,
    };
    match op {
        GOp::Input => [None, None],
        GOp::Add(a, b)
        | GOp::Sub(a, b)
        | GOp::Mul(a, b)
        | GOp::Div(a, b)
        | GOp::MaxLeft(a, b)
        | GOp::MaxRight(a, b) => [var(a), var(b)],
        GOp::Neg(a)
        | GOp::Exp(a)
        | GOp::Ln(a)
        | GOp::Tanh(a)
        | GOp::Sin(a)
        | GOp::Cos(a)
        | GOp::Sqrt(a)
        | GOp::Powi(a, _)
        | GOp::AbsPos(a)
        | GOp::AbsNeg(a) => [var(a), None],
    }
}

/// One reverse accumulation `adj[parent] = adj[parent] + partial ·
/// adj[node]` in Dual arithmetic, with its point-dependent half folded
/// in: the partial's primal `pv` and tangent row `src`, and the node's
/// adjoint primal `a_v`. A sweep only runs the tangent half.
#[derive(Debug, Clone, Copy)]
struct Acc {
    node: u32,
    parent: u32,
    src: u32,
    pv: f64,
    a_v: f64,
}

/// Reusable arena for batched Hessian and Hessian-vector-product
/// evaluation: record the graph of a [`ScalarFn`], linearize it once
/// per point, then sweep tangent lanes into caller-owned storage (see
/// the module docs for the phases and their cache keys).
pub struct GraphWorkspace {
    nodes: Vec<GOp>,
    /// Index of the output node of the last recording.
    out: usize,
    n_inputs: usize,
    /// Recording captured point-dependent structure (resolved branches or
    /// `value()` observations) and must be redone at each new point.
    point_dependent: bool,
    /// The linearization buffers below belong to the current recording
    /// at `lin_at`.
    linearized: bool,
    /// The point of the current linearization, compared bitwise.
    lin_at: Vec<f64>,
    /// Per-node forward primal values.
    vals_v: Vec<f64>,
    /// Per-node local partial primals `[∂/∂a, ∂/∂b]`.
    part_v: Vec<[f64; 2]>,
    /// Per-node tangent rows of the local partials.
    part_t: Vec<[u32; 2]>,
    /// Per-node primal factors a tangent rule reads beyond its operands,
    /// output and partials: `Div` → `[(-a)·(1/b), _]`, `Cos` →
    /// `[sin a, _]`, `Powi(p)` → `[a^(p-1), a^(p-2)]`.
    aux_v: Vec<[f64; 2]>,
    /// Number of scratch slot rows the recording uses.
    n_slots: usize,
    /// Reverse adjoint primals.
    adj_v: Vec<f64>,
    /// The reverse pass, flattened in `Tape::gradient`'s order.
    accs: Vec<Acc>,
    /// Tangent rows (constant, node and slot rows; see [`NODE_ROW0`]).
    tan: Vec<f64>,
    /// Reverse adjoint tangents, one row per node.
    adj_d: Vec<f64>,
}

impl Default for GraphWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphWorkspace {
    /// An empty workspace; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            out: 0,
            n_inputs: 0,
            point_dependent: true,
            linearized: false,
            lin_at: Vec::new(),
            vals_v: Vec::new(),
            part_v: Vec::new(),
            part_t: Vec::new(),
            aux_v: Vec::new(),
            n_slots: 0,
            adj_v: Vec::new(),
            accs: Vec::new(),
            tan: Vec::new(),
            adj_d: Vec::new(),
        }
    }

    /// Number of ops in the recorded graph (0 before the first record) —
    /// doubles as the op-count hint for sizing fresh tapes.
    pub fn op_count(&self) -> usize {
        self.nodes.len()
    }

    /// Record the computation graph of `f` at `x`.
    ///
    /// # Panics
    /// Panics if the output does not depend on the inputs (constant
    /// output), matching the tape's `gradient` contract.
    fn record<F: ScalarFn + ?Sized>(&mut self, f: &F, x: &[f64]) {
        self.linearized = false;
        let mut nodes = std::mem::take(&mut self.nodes);
        nodes.clear();
        let arena = GraphArena {
            nodes: RefCell::new(nodes),
            value_observed: Cell::new(false),
        };
        let vars: Vec<GVar<'_>> = x.iter().map(|&xi| arena.var(xi)).collect();
        let out = f.call(&vars);
        assert!(
            out.arena.is_some(),
            "gradient: output is a constant"
        );
        self.out = out.idx as usize;
        self.n_inputs = x.len();
        self.nodes = arena.nodes.into_inner();
        self.point_dependent =
            arena.value_observed.get() || self.nodes.iter().any(GOp::is_branch);
    }

    /// The full symmetrized Hessian of `f` at `x`, written into `h`.
    ///
    /// Bit-identical to assembling `d` tape Hessian-vector products and
    /// symmetrizing (the [`crate::DifferentiableFn::hessian`] default).
    pub fn hessian_into<F: ScalarFn + ?Sized>(&mut self, f: &F, x: &[f64], h: &mut Matrix) {
        let d = f.dim();
        assert_eq!(x.len(), d, "hessian_into: dimension mismatch");
        assert_eq!(h.rows(), d, "hessian_into: output rows");
        assert_eq!(h.cols(), d, "hessian_into: output cols");
        self.linearize(f, x);
        self.sweep(Seeds::Unit, h.as_mut_slice());
        h.symmetrize();
    }

    /// The Hessian-vector product `H(x)·v` of `f` at `x`, written into
    /// `out` — one single-lane sweep instead of `d` lanes, so a product
    /// costs O(graph) rather than O(d·graph) and the Hessian is never
    /// materialized; repeated products at the same `x` reuse its
    /// linearization. Bit-identical to [`crate::AutoDiffFn::hvp`] on the
    /// same point and direction (lane 0 computes exactly the `Dual`
    /// sequence a tape run seeded with `v` performs).
    pub fn hvp_into<F: ScalarFn + ?Sized>(&mut self, f: &F, x: &[f64], v: &[f64], out: &mut [f64]) {
        let d = f.dim();
        assert_eq!(x.len(), d, "hvp_into: dimension mismatch");
        assert_eq!(v.len(), d, "hvp_into: direction length");
        assert_eq!(out.len(), d, "hvp_into: output length");
        self.linearize(f, x);
        self.sweep(Seeds::Vector(v), out);
    }

    /// Make the linearization current for (`f`, `x`): a no-op when the
    /// current recording is already linearized at exactly these bits;
    /// otherwise re-record if the cached graph cannot serve `x` (never
    /// recorded, dimension change, or point-dependent structure), then
    /// run the primal forward pass and the primal reverse adjoints.
    fn linearize<F: ScalarFn + ?Sized>(&mut self, f: &F, x: &[f64]) {
        let same_point = self.lin_at.len() == x.len()
            && self.lin_at.iter().zip(x).all(|(a, b)| a.to_bits() == b.to_bits());
        if self.linearized && same_point {
            return;
        }
        if self.nodes.is_empty() || self.n_inputs != x.len() || self.point_dependent {
            self.record(f, x);
        }

        let n = self.nodes.len();
        let Self {
            nodes,
            vals_v,
            part_v,
            part_t,
            aux_v,
            adj_v,
            accs,
            ..
        } = self;
        vals_v.clear();
        vals_v.resize(n, 0.0);
        part_v.clear();
        part_v.resize(n, [0.0; 2]);
        part_t.clear();
        part_t.resize(n, [ZERO_ROW; 2]);
        aux_v.clear();
        aux_v.resize(n, [0.0; 2]);

        // Primal forward pass, in the `Var<Dual>` primal token sequences.
        // A `Mul` partial *is* the other operand, so its tangent is that
        // operand's row; `Exp`'s partial is its own output.
        let mut input = 0usize;
        let mut slot = 0u32;
        let mut next_slot = || {
            slot += 1;
            NODE_ROW0 + n as u32 + slot - 1
        };
        for i in 0..n {
            let v = |o| primal(o, vals_v);
            let (val, part, tan) = match nodes[i] {
                GOp::Input => {
                    let xi = x[input];
                    input += 1;
                    (xi, [0.0; 2], [ZERO_ROW; 2])
                }
                GOp::Add(a, b) => (v(a) + v(b), [1.0, 1.0], [ZERO_ROW; 2]),
                GOp::Sub(a, b) => (v(a) - v(b), [1.0, -1.0], [ZERO_ROW, NEG_ZERO_ROW]),
                GOp::Mul(a, b) => (v(a) * v(b), [v(b), v(a)], [row_of(b), row_of(a)]),
                GOp::Div(a, b) => {
                    // inv = one / bv; value = av * inv; pb = -av*inv*inv.
                    let (av, bv) = (v(a), v(b));
                    let inv_v = 1.0 / bv;
                    let m1_v = (-av) * inv_v;
                    aux_v[i] = [m1_v, 0.0];
                    (av * inv_v, [inv_v, m1_v * inv_v], [next_slot(), next_slot()])
                }
                GOp::Neg(a) => (-v(a), [-1.0, 0.0], [ZERO_ROW; 2]),
                GOp::Exp(a) => {
                    let e_v = v(a).exp();
                    (e_v, [e_v, 0.0], [NODE_ROW0 + i as u32, ZERO_ROW])
                }
                // pa = one / av.
                GOp::Ln(a) => (v(a).ln(), [1.0 / v(a), 0.0], [next_slot(), ZERO_ROW]),
                // pa = one - t*t.
                GOp::Tanh(a) => {
                    let t_v = v(a).tanh();
                    (t_v, [1.0 - t_v * t_v, 0.0], [next_slot(), ZERO_ROW])
                }
                // pa = av.cos().
                GOp::Sin(a) => (v(a).sin(), [v(a).cos(), 0.0], [next_slot(), ZERO_ROW]),
                // pa = -av.sin().
                GOp::Cos(a) => {
                    let sin_v = v(a).sin();
                    aux_v[i] = [sin_v, 0.0];
                    (v(a).cos(), [-sin_v, 0.0], [next_slot(), ZERO_ROW])
                }
                // pa = Dual::from_f64(0.5) / s.
                GOp::Sqrt(a) => {
                    let s_v = v(a).sqrt();
                    (s_v, [0.5 / s_v, 0.0], [next_slot(), ZERO_ROW])
                }
                // pa = Dual::from_f64(p) * av.powi(p - 1).
                GOp::Powi(a, p) => {
                    let av = v(a);
                    let q_v = av.powi(p - 1);
                    aux_v[i] = [q_v, av.powi(p - 2)];
                    (av.powi(p), [f64::from(p) * q_v, 0.0], [next_slot(), ZERO_ROW])
                }
                GOp::AbsPos(a) => (v(a), [1.0, 0.0], [ZERO_ROW; 2]),
                GOp::AbsNeg(a) => (-v(a), [-1.0, 0.0], [ZERO_ROW; 2]),
                GOp::MaxLeft(a, _) => (v(a), [1.0, 0.0], [ZERO_ROW; 2]),
                GOp::MaxRight(_, b) => (v(b), [0.0, 1.0], [ZERO_ROW; 2]),
            };
            vals_v[i] = val;
            part_v[i] = part;
            part_t[i] = tan;
        }
        self.n_slots = slot as usize;

        // Primal reverse adjoints, in `Tape::gradient`'s order, recording
        // each accumulation for the tangent sweeps.
        adj_v.clear();
        adj_v.resize(n, 0.0);
        adj_v[self.out] = 1.0;
        accs.clear();
        for i in (0..=self.out).rev() {
            let a_v = adj_v[i];
            for ((p, pv), src) in parents(nodes[i]).into_iter().zip(part_v[i]).zip(part_t[i]) {
                if let Some(parent) = p {
                    adj_v[parent as usize] += pv * a_v;
                    accs.push(Acc {
                        node: i as u32,
                        parent,
                        src,
                        pv,
                        a_v,
                    });
                }
            }
        }

        self.lin_at.clear();
        self.lin_at.extend_from_slice(x);
        self.linearized = true;
    }

    /// One tangent forward-over-reverse sweep against the current
    /// linearization; the seed mode picks the lane count `d` (all
    /// `n_inputs` unit tangents for a Hessian, one arbitrary direction
    /// for an HVP) and `out` receives the `n_inputs × lanes`
    /// adjoint-tangent block row-major. Lane `j` of every tangent buffer
    /// computes the exact scalar sequence of a `Dual` run seeded with
    /// that lane's seed — see the module docs for the contract.
    ///
    /// Always inlined, so each caller's seed mode is a known constant
    /// and the single-lane HVP sweep compiles to straight-line scalar
    /// code instead of length-1 lane loops.
    #[inline(always)]
    fn sweep(&mut self, seeds: Seeds<'_>, out: &mut [f64]) {
        debug_assert!(self.linearized, "sweep before linearize");
        let n = self.nodes.len();
        let d = match seeds {
            Seeds::Unit => self.n_inputs,
            Seeds::Vector(_) => 1,
        };
        let Self {
            nodes,
            vals_v,
            part_v,
            aux_v,
            accs,
            tan,
            adj_d,
            ..
        } = self;
        // The forward pass overwrites every node and slot row before
        // anything reads it; only the constant rows and the adjoint
        // accumulators need setting.
        let node_end = (NODE_ROW0 as usize + n) * d;
        tan.resize(node_end + self.n_slots * d, 0.0);
        tan[..d].fill(0.0);
        tan[d..2 * d].fill(-0.0);
        let (rows, slots) = tan.split_at_mut(node_end);

        // Forward pass: tangents per lane, in the exact `Var<Dual>`
        // tangent token sequences; primal factors come from the
        // linearization (`vals_v[i]` is the node's own output).
        let mut input = 0usize;
        let mut s0 = 0usize;
        for i in 0..n {
            let (prev, rest) = rows.split_at_mut((NODE_ROW0 as usize + i) * d);
            let prev = &prev[..];
            let row = &mut rest[..d];
            let [pav, _] = part_v[i];
            match nodes[i] {
                GOp::Input => {
                    match seeds {
                        Seeds::Unit => {
                            for (l, r) in row.iter_mut().enumerate() {
                                *r = if l == input { 1.0 } else { 0.0 };
                            }
                        }
                        Seeds::Vector(v) => row[0] = v[input],
                    }
                    input += 1;
                }
                GOp::Add(a, b) => {
                    let (_, at) = res(a, vals_v, prev, d);
                    let (_, bt) = res(b, vals_v, prev, d);
                    for l in 0..d {
                        row[l] = at[l] + bt[l];
                    }
                }
                GOp::Sub(a, b) => {
                    let (_, at) = res(a, vals_v, prev, d);
                    let (_, bt) = res(b, vals_v, prev, d);
                    for l in 0..d {
                        row[l] = at[l] - bt[l];
                    }
                }
                GOp::Mul(a, b) => {
                    let (av, at) = res(a, vals_v, prev, d);
                    let (bv, bt) = res(b, vals_v, prev, d);
                    for l in 0..d {
                        row[l] = at[l] * bv + av * bt[l];
                    }
                }
                GOp::Div(a, b) => {
                    let (av, at) = res(a, vals_v, prev, d);
                    let (bv, bt) = res(b, vals_v, prev, d);
                    let (inv_v, m1_v) = (pav, aux_v[i][0]);
                    for l in 0..d {
                        slots[s0 + l] = (0.0 * bv - 1.0 * bt[l]) / (bv * bv);
                    }
                    for l in 0..d {
                        let inv_d = slots[s0 + l];
                        row[l] = at[l] * inv_v + av * inv_d;
                        let m1_d = (-at[l]) * inv_v + (-av) * inv_d;
                        slots[s0 + d + l] = m1_d * inv_v + m1_v * inv_d;
                    }
                    s0 += 2 * d;
                }
                GOp::Neg(a) | GOp::AbsNeg(a) => {
                    let (_, at) = res(a, vals_v, prev, d);
                    for l in 0..d {
                        row[l] = -at[l];
                    }
                }
                GOp::Exp(a) => {
                    let (_, at) = res(a, vals_v, prev, d);
                    let e_v = vals_v[i];
                    for l in 0..d {
                        row[l] = at[l] * e_v;
                    }
                }
                GOp::Ln(a) => {
                    let (av, at) = res(a, vals_v, prev, d);
                    for l in 0..d {
                        row[l] = at[l] / av;
                        slots[s0 + l] = (0.0 * av - 1.0 * at[l]) / (av * av);
                    }
                    s0 += d;
                }
                GOp::Tanh(a) => {
                    // `pav` is `1 - t*t`, bit for bit.
                    let (_, at) = res(a, vals_v, prev, d);
                    let t_v = vals_v[i];
                    for l in 0..d {
                        row[l] = at[l] * pav;
                        slots[s0 + l] = 0.0 - (row[l] * t_v + t_v * row[l]);
                    }
                    s0 += d;
                }
                GOp::Sin(a) => {
                    // `pav` is `cos a`, `vals_v[i]` is `sin a`.
                    let (_, at) = res(a, vals_v, prev, d);
                    let sin_v = vals_v[i];
                    for l in 0..d {
                        row[l] = at[l] * pav;
                        slots[s0 + l] = -at[l] * sin_v;
                    }
                    s0 += d;
                }
                GOp::Cos(a) => {
                    let (_, at) = res(a, vals_v, prev, d);
                    let (cos_v, sin_v) = (vals_v[i], aux_v[i][0]);
                    for l in 0..d {
                        row[l] = -at[l] * sin_v;
                        slots[s0 + l] = -(at[l] * cos_v);
                    }
                    s0 += d;
                }
                GOp::Sqrt(a) => {
                    let (_, at) = res(a, vals_v, prev, d);
                    let s_v = vals_v[i];
                    for l in 0..d {
                        row[l] = at[l] * 0.5 / s_v;
                        slots[s0 + l] = (0.0 * s_v - 0.5 * row[l]) / (s_v * s_v);
                    }
                    s0 += d;
                }
                GOp::Powi(a, p) => {
                    let (_, at) = res(a, vals_v, prev, d);
                    let [q_v, r_v] = aux_v[i];
                    for l in 0..d {
                        row[l] = at[l] * f64::from(p) * q_v;
                        let q_d = at[l] * f64::from(p - 1) * r_v;
                        slots[s0 + l] = 0.0 * q_v + f64::from(p) * q_d;
                    }
                    s0 += d;
                }
                GOp::AbsPos(a) | GOp::MaxLeft(a, _) | GOp::MaxRight(_, a) => {
                    let (_, at) = res(a, vals_v, prev, d);
                    row.copy_from_slice(at);
                }
            }
        }
        debug_assert_eq!(s0, slots.len());

        // Reverse sweep: the tangent half of each recorded accumulation.
        adj_d.clear();
        adj_d.resize(n * d, 0.0);
        for acc in accs.iter() {
            let (lo, hi) = adj_d.split_at_mut(acc.node as usize * d);
            let a_row = &hi[..d];
            let p = acc.parent as usize;
            let dst = &mut lo[p * d..(p + 1) * d];
            let s = acc.src as usize;
            let src = &tan[s * d..(s + 1) * d];
            for l in 0..d {
                dst[l] += src[l] * acc.a_v + acc.pv * a_row[l];
            }
        }

        out.copy_from_slice(&adj_d[..self.n_inputs * d]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AutoDiffFn, DifferentiableFn};

    fn assert_bit_identical<F: ScalarFn>(f: F, points: &[Vec<f64>]) {
        let wrapped = AutoDiffFn::new(f);
        let mut ws = GraphWorkspace::new();
        for x in points {
            assert_hessian_matches_tape(&mut ws, &wrapped, x);
        }
    }

    struct Poly;
    impl ScalarFn for Poly {
        fn dim(&self) -> usize {
            3
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            // Mixed products, constants on both sides, powi, neg.
            x[0] * x[0] * x[1] - S::from_f64(3.0) * x[2].powi(3)
                + x[1] * S::from_f64(0.7)
                + (-x[0]) * x[2]
        }
    }

    struct DivLog;
    impl ScalarFn for DivLog {
        fn dim(&self) -> usize {
            2
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            // KLD-style: division (the `a * (1/b)` token sequence) + ln.
            x[0] * (x[0] / x[1]).ln() + x[1] / S::from_f64(2.0) + S::from_f64(1.0) / x[0]
        }
    }

    struct Transcendental;
    impl ScalarFn for Transcendental {
        fn dim(&self) -> usize {
            2
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            x[0].sin() * x[1].exp() + (x[0] * x[1]).cos() + x[1].tanh().sqrt()
                + x[0].sigmoid()
                + (x[0] * x[0] + S::from_f64(1.0)).powf_const(0.3)
        }
    }

    struct Branchy;
    impl ScalarFn for Branchy {
        fn dim(&self) -> usize {
            2
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            // relu/max/min/abs resolve branches at record time.
            (x[0] * x[1]).relu() + x[0].abs() * x[1] + Scalar::max(x[0], x[1]) * x[0]
                + Scalar::min(x[0] * x[0], x[1])
        }
    }

    struct ValueBranch;
    impl ScalarFn for ValueBranch {
        fn dim(&self) -> usize {
            2
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            // Data-dependent control flow through `value()`.
            if x[0].value() > 0.5 {
                x[0] * x[0] * x[1]
            } else {
                x[1] * x[1].exp()
            }
        }
    }

    #[test]
    fn polynomial_bit_identical() {
        assert_bit_identical(
            Poly,
            &[
                vec![0.3, -0.8, 1.7],
                vec![1.0, 2.0, 3.0],
                vec![-0.137, 0.952, -2.5],
            ],
        );
    }

    #[test]
    fn division_and_log_bit_identical() {
        assert_bit_identical(DivLog, &[vec![0.3, 0.8], vec![1.7, 0.21], vec![2.9, 5.3]]);
    }

    #[test]
    fn transcendentals_bit_identical() {
        assert_bit_identical(
            Transcendental,
            &[vec![0.4, 0.9], vec![-1.3, 0.08], vec![2.2, 1.6]],
        );
    }

    #[test]
    fn branches_bit_identical_and_rerecorded() {
        // Points on both sides of every branch.
        assert_bit_identical(
            Branchy,
            &[
                vec![0.5, 0.25],
                vec![-0.5, 0.25],
                vec![0.5, -0.9],
                vec![-0.7, -0.2],
            ],
        );
    }

    #[test]
    fn value_observation_forces_rerecord() {
        assert_bit_identical(ValueBranch, &[vec![0.9, 0.4], vec![0.1, 0.4]]);
        // And the workspace marks itself point-dependent.
        let mut ws = GraphWorkspace::new();
        let mut h = Matrix::zeros(2, 2);
        ws.hessian_into(&ValueBranch, &[0.9, 0.4], &mut h);
        assert!(ws.point_dependent);
    }

    #[test]
    fn branch_free_graph_recorded_once() {
        let mut ws = GraphWorkspace::new();
        let mut h = Matrix::zeros(3, 3);
        ws.hessian_into(&Poly, &[0.1, 0.2, 0.3], &mut h);
        assert!(!ws.point_dependent);
        let ops = ws.op_count();
        assert!(ops > 0);
        // A second point must not re-record (same op count, same arena).
        ws.hessian_into(&Poly, &[0.9, -0.4, 0.5], &mut h);
        assert_eq!(ws.op_count(), ops);
    }

    /// Deterministic non-axis directions: `k` picks the point, `j` the
    /// direction within it.
    fn direction(d: usize, k: usize, j: usize) -> Vec<f64> {
        (0..d)
            .map(|i| 0.3 + 0.7 * i as f64 - 0.11 * k as f64 + 0.53 * j as f64 * (i as f64 - 0.4))
            .collect()
    }

    fn assert_hvp_matches_tape<F: ScalarFn>(
        ws: &mut GraphWorkspace,
        wrapped: &AutoDiffFn<F>,
        x: &[f64],
        v: &[f64],
    ) -> Vec<f64> {
        let d = x.len();
        let mut out = vec![0.0; d];
        let reference = wrapped.hvp(x, v);
        ws.hvp_into(wrapped.inner(), x, v, &mut out);
        for i in 0..d {
            assert_eq!(
                out[i].to_bits(),
                reference[i].to_bits(),
                "hvp[{i}] at {x:?} along {v:?}: graph {} vs tape {}",
                out[i],
                reference[i]
            );
        }
        out
    }

    fn assert_hessian_matches_tape<F: ScalarFn>(
        ws: &mut GraphWorkspace,
        wrapped: &AutoDiffFn<F>,
        x: &[f64],
    ) {
        let d = x.len();
        let mut h = Matrix::zeros(d, d);
        let reference = DifferentiableFn::hessian(wrapped, x);
        ws.hessian_into(wrapped.inner(), x, &mut h);
        for i in 0..d {
            for jj in 0..d {
                assert_eq!(
                    h[(i, jj)].to_bits(),
                    reference[(i, jj)].to_bits(),
                    "H[{i},{jj}] at {x:?}: graph {} vs tape {}",
                    h[(i, jj)],
                    reference[(i, jj)]
                );
            }
        }
    }

    /// Several directions per point, so every point after the first
    /// product is served from a cached linearization.
    fn assert_hvp_bit_identical<F: ScalarFn>(f: F, points: &[Vec<f64>]) {
        let d = f.dim();
        let wrapped = AutoDiffFn::new(f);
        let mut ws = GraphWorkspace::new();
        for (k, x) in points.iter().enumerate() {
            for j in 0..3 {
                assert_hvp_matches_tape(&mut ws, &wrapped, x, &direction(d, k, j));
            }
        }
    }

    #[test]
    fn hvp_bit_identical_across_op_coverage() {
        assert_hvp_bit_identical(
            Poly,
            &[vec![0.3, -0.8, 1.7], vec![-0.137, 0.952, -2.5]],
        );
        assert_hvp_bit_identical(DivLog, &[vec![0.3, 0.8], vec![1.7, 0.21]]);
        assert_hvp_bit_identical(Transcendental, &[vec![0.4, 0.9], vec![2.2, 1.6]]);
        assert_hvp_bit_identical(
            Branchy,
            &[vec![0.5, 0.25], vec![-0.5, 0.25], vec![-0.7, -0.2]],
        );
        assert_hvp_bit_identical(ValueBranch, &[vec![0.9, 0.4], vec![0.1, 0.4]]);
    }

    #[test]
    fn hvp_and_hessian_share_one_recording() {
        let mut ws = GraphWorkspace::new();
        let mut h = Matrix::zeros(3, 3);
        let mut out = vec![0.0; 3];
        ws.hessian_into(&Poly, &[0.1, 0.2, 0.3], &mut h);
        let ops = ws.op_count();
        // Interleaved HVPs at other points reuse the same graph.
        ws.hvp_into(&Poly, &[0.9, -0.4, 0.5], &[1.0, 0.0, 2.0], &mut out);
        ws.hvp_into(&Poly, &[0.2, 0.2, 0.2], &[0.5, -1.0, 0.0], &mut out);
        assert_eq!(ws.op_count(), ops);
        // And the HVP matches H·v from the full Hessian (same quadratic
        // graph, so equality is exact up to symmetrization).
        ws.hessian_into(&Poly, &[0.2, 0.2, 0.2], &mut h);
        let hv = h.matvec(&[0.5, -1.0, 0.0]);
        ws.hvp_into(&Poly, &[0.2, 0.2, 0.2], &[0.5, -1.0, 0.0], &mut out);
        for i in 0..3 {
            assert!((out[i] - hv[i]).abs() < 1e-12, "{} vs {}", out[i], hv[i]);
        }
    }

    #[test]
    fn interleaved_hessians_and_hvps_bit_identical() {
        fn run<F: ScalarFn>(f: F, points: &[Vec<f64>]) {
            let d = f.dim();
            let wrapped = AutoDiffFn::new(f);
            let mut ws = GraphWorkspace::new();
            // Alternate points on one workspace, mixing full Hessians
            // (d lanes) and products (one lane) against each
            // linearization, and returning to earlier points.
            for round in 0..2 {
                for (k, x) in points.iter().enumerate() {
                    assert_hvp_matches_tape(&mut ws, &wrapped, x, &direction(d, k, round));
                    assert_hessian_matches_tape(&mut ws, &wrapped, x);
                    assert_hvp_matches_tape(&mut ws, &wrapped, x, &direction(d, k, round + 1));
                }
            }
        }
        run(Poly, &[vec![0.3, -0.8, 1.7], vec![-0.137, 0.952, -2.5]]);
        run(DivLog, &[vec![0.3, 0.8], vec![1.7, 0.21]]);
        run(Transcendental, &[vec![0.4, 0.9], vec![2.2, 1.6]]);
        run(Branchy, &[vec![0.5, 0.25], vec![-0.5, 0.25], vec![-0.7, -0.2]]);
        run(ValueBranch, &[vec![0.9, 0.4], vec![0.1, 0.4]]);
    }

    #[test]
    fn point_dependent_graphs_relinearize_after_rerecord() {
        // ValueBranch records a different graph on each side of 0.5;
        // every switch must re-record and re-linearize before sweeping.
        let wrapped = AutoDiffFn::new(ValueBranch);
        let mut ws = GraphWorkspace::new();
        let hi = [0.9, 0.4];
        let lo = [0.1, 0.4];
        for x in [hi, lo, lo, hi, lo] {
            assert_hvp_matches_tape(&mut ws, &wrapped, &x, &[1.0, -0.5]);
            assert_hessian_matches_tape(&mut ws, &wrapped, &x);
            assert_hvp_matches_tape(&mut ws, &wrapped, &x, &[0.25, 2.0]);
        }

        // Branchy keeps its op count but flips opcodes between points.
        let wrapped = AutoDiffFn::new(Branchy);
        let mut ws = GraphWorkspace::new();
        for x in [[0.5, 0.25], [-0.5, 0.25], [0.5, 0.25], [-0.7, -0.2]] {
            assert_hvp_matches_tape(&mut ws, &wrapped, &x, &[0.7, -1.1]);
            assert_hvp_matches_tape(&mut ws, &wrapped, &x, &[-0.2, 0.9]);
            assert_hessian_matches_tape(&mut ws, &wrapped, &x);
        }
    }

    /// Divides by `x0` and branches on the sign of the quotient:
    /// `1/(+0.0)` is `+inf` and `1/(-0.0)` is `-inf`, so the two zeros
    /// take different branches even though `0.0 == -0.0`. (The division
    /// happens on the primal: a recorded division by zero would turn
    /// every derivative into NaN at both zeros alike.)
    struct ReciprocalSign;
    impl ScalarFn for ReciprocalSign {
        fn dim(&self) -> usize {
            1
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            if 1.0 / x[0].value() > 0.0 {
                x[0] * x[0]
            } else {
                x[0] * x[0] * x[0]
            }
        }
    }

    #[test]
    fn signed_zero_points_are_distinct() {
        let wrapped = AutoDiffFn::new(ReciprocalSign);
        let mut ws = GraphWorkspace::new();
        let at_pos = assert_hvp_matches_tape(&mut ws, &wrapped, &[0.0], &[1.0]);
        let at_neg = assert_hvp_matches_tape(&mut ws, &wrapped, &[-0.0], &[1.0]);
        // The zeros really differ, so serving one from the other's
        // cached graph or linearization would have failed above.
        assert_ne!(at_pos[0].to_bits(), at_neg[0].to_bits());
        assert_hvp_matches_tape(&mut ws, &wrapped, &[0.0], &[-2.0]);
    }

    #[test]
    #[should_panic(expected = "output is a constant")]
    fn constant_output_panics() {
        struct ConstOut;
        impl ScalarFn for ConstOut {
            fn dim(&self) -> usize {
                1
            }
            fn call<S: Scalar>(&self, _x: &[S]) -> S {
                S::from_f64(4.0)
            }
        }
        let mut ws = GraphWorkspace::new();
        let mut h = Matrix::zeros(1, 1);
        ws.hessian_into(&ConstOut, &[0.0], &mut h);
    }
}
