//! Blocked (supernodal) triangular-solve kernels — the fast path behind
//! [`super::SparseLu::solve_into`], `solve_many_into` and `refactor`.
//!
//! # Relaxed supernodes and panels
//!
//! A *supernode* here is a run of adjacent factor columns amalgamated
//! because their patterns overlap enough that one dense, zero-padded
//! *panel* (row-major, one `f64` per row/column cell, no per-entry row
//! indices) is cheaper to stream than the per-entry compressed columns:
//! a padded panel cell costs 8 bytes where a scalar entry costs 16
//! (value + row index), so the amalgamation bound ([`relax_limit_pct`])
//! accepts generous padding. AMD with supervariable detection plus
//! elimination-tree postordering ([`super::order::Amd`]) is what makes
//! such runs common. Each side of a supernode keeps its panel only while
//! the realized padding stays under [`PANEL_MAX_PAD_PCT`]; gated sides
//! fall back to the per-entry loops.
//!
//! The kernels are *push-form*: a supernode's columns update the shared
//! rows through [`panel_update`] — per row one gather, one contiguous
//! dot-chain over the supernode's columns, one scatter — with per-row
//! chains independent across rows, so out-of-order hardware overlaps
//! their floating-point latency (a pure dot-form sweep was measured
//! latency-bound: consecutive rows depend on each other at distance one).
//! The multi-RHS kernel ([`panel_update_multi`]) adds a contiguous
//! right-hand-side lane axis, which is the auto-vectorizable dimension —
//! plain indexed `f64` loops, no nightly `std::simd`.
//!
//! # Bit-exactness contract
//!
//! Every kernel reproduces the scalar reference path
//! ([`super::SparseLu::solve_into_scalar`] / `refactor_scalar`)
//! **bit for bit**: floating-point updates to any one solution entry are
//! applied in the same order and association as the scalar column sweeps;
//! a zero multiplier skips a column's update exactly like the scalar
//! `val != 0.0` guard, and a padded panel cell contributes `acc -= x·0.0`
//! — a bitwise no-op on any finite chain. `tests/solve_kernels.rs` locks
//! the equivalence with proptests over random patterns and orderings.
//!
//! The plan also rewrites both solves into *pivot index space*: the fill
//! permutation, the pivot permutation and the CSR row order collapse into
//! one gather (`in_perm`) on the way in and one scatter (`fill_perm`) on
//! the way out, halving the indirections of the permuted-row scalar path.

use crate::flops::FlopCounter;

/// Maximum supernode width. Bounds the per-kernel stack scratch and keeps
/// the dense triangles small enough to stay cache-resident.
pub(crate) const MAX_SUPERNODE: usize = 32;

/// Row-chunk width of the explicit-SIMD `f64` panel kernels: the shared
/// rows of a panel update are processed in groups of four independent
/// accumulator chains (`[f64; 4]`), a shape the autovectorizer lowers to
/// 256-bit lanes without reassociating any per-row chain.
pub(crate) const LANES_F64: usize = 4;

/// Per-column absolute slack of the relaxation bound (lets very sparse
/// neighboring columns amalgamate when the constant overhead dominates).
pub(crate) const RELAX_SLACK: usize = 4;

/// Maximum realized padding (zero entries per hundred panel entries) a
/// side's panel may carry before the layout drops it and the kernels fall
/// back to the per-entry scalar loops for that side of the supernode.
pub(crate) const PANEL_MAX_PAD_PCT: usize = 110;

/// Smallest dimension at which the blocked kernels engage by default.
/// Below this the whole factor is cache-resident and the per-supernode
/// machinery costs more than the panels save (measured: mesh10/mesh20 run
/// 10–25% faster through the plain scalar sweeps), so small factors keep
/// the exact pre-blocking hot path; `SparseLu::set_blocked_kernels`
/// overrides the gate for tests and benches.
pub(crate) const BLOCKED_MIN_DIM: usize = 512;

/// Width-dependent relaxed-amalgamation bound (CHOLMOD-style): narrow
/// supernodes accept generous zero padding — width is what amortizes the
/// per-row gather/scatter, so buying it cheaply at small `w` pays — while
/// wide ones must stay tight. Returns the allowed
/// `padded_entries / true_entries` ratio scaled by 100.
#[inline]
pub(crate) fn relax_limit_pct(w: usize) -> usize {
    // A padded panel entry streams 8 bytes where a scalar entry streams 16
    // (value + row index), so padding up to ~100% of the true entries
    // still reduces memory traffic; wider supernodes tighten the bound to
    // keep the dense triangles honest.
    match w {
        0..=8 => 210,
        9..=16 => 180,
        _ => 150,
    }
}

/// The blocked-kernel execution plan of one numeric factorization:
/// supernode partition, pivot-space index maps, and dense value panels
/// mirroring the supernodal entries of `l_vals` / `u_vals`.
#[derive(Debug, Clone, Default)]
pub(crate) struct SupernodePlan {
    /// `in_perm[k]` = original RHS index loaded into pivot slot `k`
    /// (`fill_perm ∘ pivot_perm`).
    pub in_perm: Vec<usize>,
    /// `l_rows_piv[p]` = pivot index of `l_rows[p]` (`u32`: half the
    /// index bytes of the scalar path's `usize` rows — the triangular
    /// sweeps are memory-bound, so index width is wall-clock).
    pub l_rows_piv: Vec<u32>,
    /// `u_rows32[p]` = `u_rows[p]` as `u32` (same byte-width rationale).
    pub u_rows32: Vec<u32>,
    /// `csc_rows_piv[p]` = pivot index of the symbolic analysis's
    /// `csc_rows[p]` (the refactor scatter target).
    pub csc_rows_piv: Vec<u32>,
    /// Supernode column boundaries; supernode `s` spans columns
    /// `sn_ptr[s]..sn_ptr[s+1]`.
    pub sn_ptr: Vec<usize>,
    /// Column → supernode id.
    pub sn_of: Vec<usize>,

    /// Shared below-block L rows (pivot indices `>= sn end`), per
    /// supernode; empty for width-1 supernodes.
    pub l_rows_ptr: Vec<usize>,
    pub l_sn_rows: Vec<usize>,
    /// Row-major `|S_L| × w` shared-row value panels, leading dimension
    /// `w` (+ source slots in `l_vals` used to refresh them after a
    /// refactor; `usize::MAX` slots are structural zero padding).
    pub l_panel_ptr: Vec<usize>,
    pub l_panel: Vec<f64>,
    pub l_panel_src: Vec<usize>,
    /// Dense intra-block strictly-lower triangles, per supernode: for each
    /// column `c`, rows `c+1..w` (length `w(w-1)/2`).
    pub l_tri_ptr: Vec<usize>,
    pub l_tri: Vec<f64>,
    pub l_tri_src: Vec<usize>,

    /// Shared above-block U rows (pivot indices `< sn start`).
    pub u_rows_ptr: Vec<usize>,
    pub u_sn_rows: Vec<usize>,
    pub u_panel_ptr: Vec<usize>,
    pub u_panel: Vec<f64>,
    pub u_panel_src: Vec<usize>,
    /// Dense intra-block strictly-upper triangles: for each column `c`,
    /// rows `0..c`.
    pub u_tri_ptr: Vec<usize>,
    pub u_tri: Vec<f64>,
    pub u_tri_src: Vec<usize>,

    /// Per-supernode kernel gates: a side whose realized union padding is
    /// too high keeps no panel (`false`) and its columns run through the
    /// per-entry scalar path instead — padding beyond
    /// [`PANEL_MAX_PAD_PCT`] costs more than the panel saves.
    pub l_use: Vec<bool>,
    pub u_use: Vec<bool>,

    /// Master gate: `false` (dimension below [`BLOCKED_MIN_DIM`], unless
    /// overridden) skips panel materialization entirely and routes
    /// `solve_into` / `refactor` through the scalar sweeps — the supernode
    /// partition and its statistics are still computed.
    pub enabled: bool,
}

impl SupernodePlan {
    /// Number of multi-column supernodes (width >= 2).
    pub fn supernode_count(&self) -> usize {
        (0..self.sn_ptr.len().saturating_sub(1))
            .filter(|&s| self.width(s) >= 2)
            .count()
    }

    /// Number of factor columns covered by multi-column supernodes.
    pub fn supernode_cols(&self) -> usize {
        (0..self.sn_ptr.len().saturating_sub(1))
            .map(|s| self.width(s))
            .filter(|&w| w >= 2)
            .sum()
    }

    #[inline]
    pub fn width(&self, s: usize) -> usize {
        self.sn_ptr[s + 1] - self.sn_ptr[s]
    }

    /// Builds the plan from a finished numeric factorization: amalgamates
    /// adjacent columns into *relaxed* supernodes wherever the dense-panel
    /// padding stays cheap, lays out the index maps of every panel, and
    /// compiles the pull-form row programs of the single-RHS solves
    /// (values are installed by [`SupernodePlan::refresh`]).
    ///
    /// Relaxation: a supernode's panels cover the **union** of its columns'
    /// patterns, with structurally absent entries padded by explicit
    /// zeros. A zero panel entry subtracts `xs · 0.0` — a bitwise no-op on
    /// any finite update chain — so padding preserves the bit-exactness
    /// contract while letting merged-supervariable columns (whose `U`
    /// patterns differ in the pre-merge region) still share one panel. The
    /// cost model accepts an extension while the padded panel work stays
    /// within [`relax_limit_pct`] of the true entry count (plus a small
    /// per-column slack), so sparsity is never traded away wholesale.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        n: usize,
        perm: &[usize],
        fill_perm: &[usize],
        csc_rows: &[usize],
        l_colptr: &[usize],
        l_rows: &[usize],
        u_colptr: &[usize],
        u_rows: &[usize],
        force_blocked: Option<bool>,
    ) -> SupernodePlan {
        // Pivot-space index maps.
        let mut pinv_piv = vec![0usize; n];
        for (k, &r) in perm.iter().enumerate() {
            pinv_piv[r] = k;
        }
        let in_perm: Vec<usize> = perm.iter().map(|&r| fill_perm[r]).collect();
        let l_rows_piv: Vec<u32> = l_rows.iter().map(|&r| pinv_piv[r] as u32).collect();
        let u_rows32: Vec<u32> = u_rows.iter().map(|&r| r as u32).collect();
        let csc_rows_piv: Vec<u32> = csc_rows.iter().map(|&r| pinv_piv[r] as u32).collect();

        // Sorted pivot-space L pattern per column (amalgamation scratch).
        let lp_sorted: Vec<Vec<usize>> = (0..n)
            .map(|k| {
                let mut v: Vec<usize> = l_rows_piv[l_colptr[k]..l_colptr[k + 1]]
                    .iter()
                    .map(|&r| r as usize)
                    .collect();
                v.sort_unstable();
                v
            })
            .collect();

        // Greedy cost-bounded amalgamation.
        let mut sn_ptr = vec![0usize];
        let mut sn_of = vec![0usize; n];
        let mut union_l: Vec<usize> = Vec::new();
        let mut union_u: Vec<usize> = Vec::new();
        let mut merged: Vec<usize> = Vec::new();
        let mut k = 0usize;
        while k < n {
            let k0 = k;
            union_l.clear();
            union_l.extend_from_slice(&lp_sorted[k0]);
            union_u.clear();
            union_u.extend_from_slice(&u_rows[u_colptr[k0]..u_colptr[k0 + 1]]);
            let mut true_total = union_l.len() + union_u.len();
            k += 1;
            while k < n && k - k0 < MAX_SUPERNODE {
                let w = k - k0 + 1;
                // Candidate unions with column k folded in (U keeps only
                // the shared region below k0; intra rows live in the
                // padded triangle).
                sorted_union(&union_l, &lp_sorted[k], &mut merged);
                std::mem::swap(&mut union_l, &mut merged);
                sorted_union_filtered(
                    &union_u,
                    &u_rows[u_colptr[k]..u_colptr[k + 1]],
                    k0,
                    &mut merged,
                );
                std::mem::swap(&mut union_u, &mut merged);
                let cand_true =
                    true_total + (l_colptr[k + 1] - l_colptr[k]) + (u_colptr[k + 1] - u_colptr[k]);
                let shared_l = union_l.iter().filter(|&&r| r > k).count();
                let padded = w * (w - 1) + w * (shared_l + union_u.len());
                if padded * 100 <= cand_true * relax_limit_pct(w) + RELAX_SLACK * w * 100 {
                    true_total = cand_true;
                    k += 1;
                } else {
                    // Roll back: the unions are rebuilt at the next k0.
                    break;
                }
            }
            let s = sn_ptr.len() - 1;
            for c in k0..k {
                sn_of[c] = s;
            }
            sn_ptr.push(k);
        }

        let ns = sn_ptr.len() - 1;
        let mut plan = SupernodePlan {
            in_perm,
            l_rows_piv,
            u_rows32,
            csc_rows_piv,
            sn_ptr,
            sn_of,
            l_rows_ptr: vec![0; ns + 1],
            u_rows_ptr: vec![0; ns + 1],
            l_panel_ptr: vec![0; ns + 1],
            u_panel_ptr: vec![0; ns + 1],
            l_tri_ptr: vec![0; ns + 1],
            u_tri_ptr: vec![0; ns + 1],
            l_use: vec![false; ns],
            u_use: vec![false; ns],
            enabled: force_blocked.unwrap_or(n >= BLOCKED_MIN_DIM),
            ..SupernodePlan::default()
        };
        if !plan.enabled {
            // Scalar routing: the partition and its statistics stand, but
            // no panels are materialized and no upkeep is ever paid.
            return plan;
        }

        // Panel layout + source maps. `pos_of` maps a shared row (pivot
        // index) to its slot within the current supernode's row list;
        // `usize::MAX` source slots are zero padding.
        let mut pos_of = vec![usize::MAX; n];
        for s in 0..ns {
            let (k0, k1) = (plan.sn_ptr[s], plan.sn_ptr[s + 1]);
            let w = k1 - k0;
            if w < 2 {
                plan.l_rows_ptr[s + 1] = plan.l_sn_rows.len();
                plan.u_rows_ptr[s + 1] = plan.u_sn_rows.len();
                plan.l_panel_ptr[s + 1] = plan.l_panel_src.len();
                plan.u_panel_ptr[s + 1] = plan.u_panel_src.len();
                plan.l_tri_ptr[s + 1] = plan.l_tri_src.len();
                plan.u_tri_ptr[s + 1] = plan.u_tri_src.len();
                continue;
            }
            // Shared row unions of the supernode's columns.
            union_l.clear();
            union_u.clear();
            for col in k0..k1 {
                sorted_union(&union_l, &lp_sorted[col], &mut merged);
                std::mem::swap(&mut union_l, &mut merged);
                sorted_union_filtered(
                    &union_u,
                    &u_rows[u_colptr[col]..u_colptr[col + 1]],
                    k0,
                    &mut merged,
                );
                std::mem::swap(&mut union_u, &mut merged);
            }
            union_l.retain(|&r| r >= k1);

            // Realized padding decides whether the side keeps a panel at
            // all: the columns of a too-ragged side run scalar instead.
            let true_l: usize = (k0..k1).map(|c| l_colptr[c + 1] - l_colptr[c]).sum();
            let padded_l = w * (w - 1) / 2 + w * union_l.len();
            plan.l_use[s] = padded_l * 100 <= true_l.max(1) * (100 + PANEL_MAX_PAD_PCT);
            let nr = union_l.len();
            if plan.l_use[s] {
                for (i, &r) in union_l.iter().enumerate() {
                    pos_of[r] = i;
                }
                let lp_base = plan.l_panel_src.len();
                plan.l_panel_src.resize(lp_base + nr * w, usize::MAX);
                let lt_base = plan.l_tri_src.len();
                plan.l_tri_src.resize(lt_base + w * (w - 1) / 2, usize::MAX);
                for c in 0..w {
                    let col = k0 + c;
                    let tri_col = lt_base + c * (2 * w - c - 1) / 2;
                    for p in l_colptr[col]..l_colptr[col + 1] {
                        let piv = plan.l_rows_piv[p] as usize;
                        if piv < k1 {
                            // Intra row: dense triangle slot (rows c+1..w).
                            plan.l_tri_src[tri_col + (piv - k0) - c - 1] = p;
                        } else {
                            plan.l_panel_src[lp_base + pos_of[piv] * w + c] = p;
                        }
                    }
                }
                for &r in &union_l {
                    pos_of[r] = usize::MAX;
                }
                plan.l_sn_rows.extend_from_slice(&union_l);
            }

            let true_u: usize = (k0..k1).map(|c| u_colptr[c + 1] - u_colptr[c]).sum();
            let padded_u = w * (w - 1) / 2 + w * union_u.len();
            plan.u_use[s] = padded_u * 100 <= true_u.max(1) * (100 + PANEL_MAX_PAD_PCT);
            if plan.u_use[s] {
                let nru = union_u.len();
                let up_base = plan.u_panel_src.len();
                let ut_base = plan.u_tri_src.len();
                for (i, &r) in union_u.iter().enumerate() {
                    pos_of[r] = i;
                }
                plan.u_panel_src.resize(up_base + nru * w, usize::MAX);
                plan.u_tri_src.resize(ut_base + w * (w - 1) / 2, usize::MAX);
                for c in 0..w {
                    let col = k0 + c;
                    let tri_base = ut_base + (c * c - c) / 2;
                    for p in u_colptr[col]..u_colptr[col + 1] {
                        let piv = u_rows[p];
                        if piv >= k0 {
                            // Intra row: triangle slot (rows 0..c of column c).
                            plan.u_tri_src[tri_base + (piv - k0)] = p;
                        } else {
                            plan.u_panel_src[up_base + pos_of[piv] * w + c] = p;
                        }
                    }
                }
                for &r in &union_u {
                    pos_of[r] = usize::MAX;
                }
                plan.u_sn_rows.extend_from_slice(&union_u);
            }

            plan.l_rows_ptr[s + 1] = plan.l_sn_rows.len();
            plan.u_rows_ptr[s + 1] = plan.u_sn_rows.len();
            plan.l_panel_ptr[s + 1] = plan.l_panel_src.len();
            plan.u_panel_ptr[s + 1] = plan.u_panel_src.len();
            plan.l_tri_ptr[s + 1] = plan.l_tri_src.len();
            plan.u_tri_ptr[s + 1] = plan.u_tri_src.len();
        }
        plan.l_panel = vec![0.0; plan.l_panel_src.len()];
        plan.u_panel = vec![0.0; plan.u_panel_src.len()];
        plan.l_tri = vec![0.0; plan.l_tri_src.len()];
        plan.u_tri = vec![0.0; plan.u_tri_src.len()];
        plan
    }

    /// Refreshes every panel and pull-stream value from the canonical
    /// factor arrays (`usize::MAX` source slots are structural zero
    /// padding).
    pub fn refresh(&mut self, l_vals: &[f64], u_vals: &[f64]) {
        refresh_range(&mut self.l_panel, &self.l_panel_src, l_vals, 0, usize::MAX);
        refresh_range(&mut self.l_tri, &self.l_tri_src, l_vals, 0, usize::MAX);
        refresh_range(&mut self.u_panel, &self.u_panel_src, u_vals, 0, usize::MAX);
        refresh_range(&mut self.u_tri, &self.u_tri_src, u_vals, 0, usize::MAX);
    }

    /// Refreshes one supernode's panels (called by the blocked refactor as
    /// soon as the supernode's last column is final, so later columns can
    /// eliminate against up-to-date panels; the pull streams are mirrored
    /// in place by the refactor itself).
    pub fn refresh_supernode(&mut self, s: usize, l_vals: &[f64], u_vals: &[f64]) {
        refresh_range(
            &mut self.l_panel,
            &self.l_panel_src,
            l_vals,
            self.l_panel_ptr[s],
            self.l_panel_ptr[s + 1],
        );
        refresh_range(
            &mut self.l_tri,
            &self.l_tri_src,
            l_vals,
            self.l_tri_ptr[s],
            self.l_tri_ptr[s + 1],
        );
        refresh_range(
            &mut self.u_panel,
            &self.u_panel_src,
            u_vals,
            self.u_panel_ptr[s],
            self.u_panel_ptr[s + 1],
        );
        refresh_range(
            &mut self.u_tri,
            &self.u_tri_src,
            u_vals,
            self.u_tri_ptr[s],
            self.u_tri_ptr[s + 1],
        );
    }
}

/// Copies `vals[src[i]]` into `dst[i]` over `[lo, hi)` (`hi = usize::MAX`
/// means the whole array); `usize::MAX` sources are zero padding.
fn refresh_range(dst: &mut [f64], src: &[usize], vals: &[f64], lo: usize, hi: usize) {
    let hi = hi.min(dst.len());
    for i in lo..hi {
        let s = src[i];
        dst[i] = if s == usize::MAX { 0.0 } else { vals[s] };
    }
}

/// Merges two ascending index lists into `out` (set union).
fn sorted_union(a: &[usize], b: &[usize], out: &mut Vec<usize>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// [`sorted_union`] keeping only `b` entries strictly below `limit` (the
/// shared above-block region of a U column).
fn sorted_union_filtered(a: &[usize], b: &[usize], limit: usize, out: &mut Vec<usize>) {
    let cut = b.partition_point(|&r| r < limit);
    sorted_union(a, &b[..cut], out);
}

/// Shared-row panel update `z[rows[i]] -= Σ_c xs[c] · panel[i·w + c]`
/// (row-major panel, leading dimension `w`), chained over `active` columns
/// in the given order *per row* — bit-equal to the scalar per-column
/// scatter, with one gather + one scatter per row instead of one per
/// factor entry. The per-row chains are independent, so out-of-order
/// hardware overlaps them freely.
#[inline]
pub(crate) fn panel_update(
    z: &mut [f64],
    rows: &[usize],
    panel: &[f64],
    w: usize,
    xs: &[f64],
    active: &[usize],
) {
    // Full-active panels run row-chunked: [`LANES_F64`] rows advance as one
    // `[f64; 4]` accumulator group, every lane a *separate* row whose
    // column chain keeps the exact scalar order and association — the lane
    // axis is across independent chains, never within one, so the shape
    // vectorizes without touching the bit-exactness contract. Shared rows
    // are distinct pivot indices, so lanes never alias.
    if active.len() == w && active[0] == 0 {
        // All columns active in ascending order (the common forward case):
        // straight contiguous dot-chains, no index indirection. The
        // iterator zips compile without bounds checks.
        let mut rc = rows.chunks_exact(LANES_F64);
        let mut pc = panel.chunks_exact(LANES_F64 * w);
        for (rq, pq) in (&mut rc).zip(&mut pc) {
            let mut acc = [z[rq[0]], z[rq[1]], z[rq[2]], z[rq[3]]];
            let (p0, rest) = pq.split_at(w);
            let (p1, rest) = rest.split_at(w);
            let (p2, p3) = rest.split_at(w);
            for ((((x, a0), a1), a2), a3) in xs[..w].iter().zip(p0).zip(p1).zip(p2).zip(p3) {
                acc[0] -= x * a0;
                acc[1] -= x * a1;
                acc[2] -= x * a2;
                acc[3] -= x * a3;
            }
            for (&row, &a) in rq.iter().zip(&acc) {
                z[row] = a;
            }
        }
        for (&row, prow) in rc.remainder().iter().zip(pc.remainder().chunks_exact(w)) {
            let mut acc = z[row];
            for (p, x) in prow.iter().zip(&xs[..w]) {
                acc -= x * p;
            }
            z[row] = acc;
        }
    } else if active.len() == w {
        // All columns active in descending order (the common backward
        // case) — same chains, reversed, preserving the scalar update
        // order per row.
        let mut rc = rows.chunks_exact(LANES_F64);
        let mut pc = panel.chunks_exact(LANES_F64 * w);
        for (rq, pq) in (&mut rc).zip(&mut pc) {
            let mut acc = [z[rq[0]], z[rq[1]], z[rq[2]], z[rq[3]]];
            let (p0, rest) = pq.split_at(w);
            let (p1, rest) = rest.split_at(w);
            let (p2, p3) = rest.split_at(w);
            for ((((x, a0), a1), a2), a3) in xs[..w].iter().zip(p0).zip(p1).zip(p2).zip(p3).rev() {
                acc[0] -= x * a0;
                acc[1] -= x * a1;
                acc[2] -= x * a2;
                acc[3] -= x * a3;
            }
            for (&row, &a) in rq.iter().zip(&acc) {
                z[row] = a;
            }
        }
        for (&row, prow) in rc.remainder().iter().zip(pc.remainder().chunks_exact(w)) {
            let mut acc = z[row];
            for (p, x) in prow.iter().zip(&xs[..w]).rev() {
                acc -= x * p;
            }
            z[row] = acc;
        }
    } else {
        for (&row, prow) in rows.iter().zip(panel.chunks_exact(w)) {
            let mut acc = z[row];
            for &c in active {
                acc -= xs[c] * prow[c];
            }
            z[row] = acc;
        }
    }
}

/// Multi-RHS shared-row panel update over `nrhs` interleaved lanes:
/// `z[rows[i]·K + r] -= Σ_c xs[c·K + r] · panel[i·w + c]`, columns chained
/// in `active` order per (row, lane); the contiguous lane loop is the
/// auto-vectorizable axis.
#[inline]
pub(crate) fn panel_update_multi(
    z: &mut [f64],
    rows: &[usize],
    panel: &[f64],
    w: usize,
    xs: &[f64],
    active: &[usize],
    nrhs: usize,
) {
    for (&row, prow) in rows.iter().zip(panel.chunks_exact(w)) {
        let dst = &mut z[row * nrhs..row * nrhs + nrhs];
        for &c in active {
            let col_val = prow[c];
            let xr = &xs[c * nrhs..c * nrhs + nrhs];
            // RHS lanes in [`LANES_F64`] chunks: each lane is an
            // independent right-hand side, so the chunking changes no
            // chain — it only hands the compiler a fixed `[f64; 4]`
            // shape per iteration.
            let mut dc = dst.chunks_exact_mut(LANES_F64);
            let mut xc = xr.chunks_exact(LANES_F64);
            for (dq, xq) in (&mut dc).zip(&mut xc) {
                dq[0] -= xq[0] * col_val;
                dq[1] -= xq[1] * col_val;
                dq[2] -= xq[2] * col_val;
                dq[3] -= xq[3] * col_val;
            }
            for (d, &x) in dc.into_remainder().iter_mut().zip(xc.remainder()) {
                *d -= x * col_val;
            }
        }
    }
}

/// Counts lanes of an interleaved multi-RHS slot group that are nonzero —
/// the multi-RHS flop accounting mirrors `nrhs` independent scalar solves,
/// which skip zero columns.
#[inline]
pub(crate) fn nonzero_lanes(xs: &[f64]) -> u64 {
    xs.iter().filter(|v| **v != 0.0).count() as u64
}

/// Records the flops of one forward/backward column update applied to
/// `len` rows for `nz` nonzero lanes.
#[inline]
pub(crate) fn count_col_fma(flops: &mut FlopCounter, len: usize, nz: u64) {
    if nz > 0 {
        flops.fma(len as u64 * nz);
    }
}
