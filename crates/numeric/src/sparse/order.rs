//! Fill-reducing orderings — the first phase of the sparse-LU pipeline.
//!
//! Factoring a sparse matrix in its natural index order can create far more
//! fill-in (new nonzeros in `L`/`U`) than the matrix requires: on the
//! mesh-structured MNA systems of replicated nano-cell arrays the natural
//! order eliminates along long grid rows and fills whole separators. A
//! *fill-reducing ordering* permutes the matrix symmetrically before the
//! symbolic analysis so every subsequent full factorization **and** every
//! values-only refactorization touches fewer entries.
//!
//! The pipeline is ordering → symbolic → numeric:
//!
//! 1. [`OrderingChoice::perm`] computes a permutation from the
//!    *symmetrized* sparsity pattern (values are never consulted),
//! 2. [`super::SymbolicAnalysis`] applies it, building the permuted
//!    compressed-column structure and scatter maps once,
//! 3. the numeric factor/refactor of [`super::SparseLu`] runs entirely in
//!    permuted index space.
//!
//! Two orderings are provided: natural order (identity — bit-compatible
//! with the pre-ordering pipeline) and approximate minimum degree on a
//! quotient graph (the fill-reducer production sparse solvers default to).
//! [`OrderingChoice`] is the selector engines and the session API carry;
//! its [`OrderingChoice::Auto`] default picks AMD for systems of at least
//! [`OrderingChoice::AUTO_AMD_THRESHOLD`] unknowns and the natural order
//! below, where ordering overhead outweighs the saved fill.
//!
//! Every ordering is a pure function of the sparsity structure, so results
//! are deterministic across runs, platforms and thread counts.

/// Approximate minimum degree on the symmetrized pattern: quotient-graph
/// elimination (Amestoy/Davis/Duff style) where each pivot's boundary
/// becomes an *element*, absorbed elements are dropped, and degrees are
/// approximated by summing element boundary sizes instead of forming their
/// union — now **with supervariable detection (mass elimination)**:
/// boundary variables whose quotient-graph adjacency becomes identical are
/// merged into one weighted supervariable, eliminated together, and emitted
/// consecutively. That both sharpens the degree approximation (weights
/// replace unit counts) and orders indistinguishable columns adjacently.
/// Ties break on the smallest index, which keeps the ordering fully
/// deterministic. Returns `perm`, where `perm[k]` is the original index
/// placed at permuted position `k`.
fn amd(n: usize, row_ptr: &[usize], col_idx: &[usize]) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let (xadj, adj_flat) = symmetrized_adjacency(n, row_ptr, col_idx);
    // Variable→variable edges still uncovered by an element. Lists stay
    // sorted: they start sorted and are only ever filtered.
    let mut adj: Vec<Vec<usize>> = (0..n)
        .map(|v| adj_flat[xadj[v]..xadj[v + 1]].to_vec())
        .collect();
    // Elements (eliminated pivots) adjacent to each variable, and each
    // element's boundary variables. Invariant: `e ∈ elems[v]` iff
    // `v ∈ elem_nodes[e]` (modulo dead variables, filtered on use).
    let mut elems: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut elem_nodes: Vec<Vec<usize>> = vec![Vec::new(); n];
    // Total weight of each element's boundary, fixed at creation: a
    // boundary variable can only leave by whole-element absorption,
    // and supervariable merges move mass between members of the same
    // boundary — so the sum is invariant, making weighted degree
    // updates O(#elements) instead of O(total boundary size).
    let mut elem_weight: Vec<usize> = vec![0; n];
    let mut absorbed = vec![false; n];
    // Supervariable bookkeeping: `weight[v]` counts the original
    // variables a representative stands for; `members[v]` lists them in
    // merge order (the order they are emitted on elimination).
    let mut weight: Vec<usize> = vec![1usize; n];
    let mut members: Vec<Vec<usize>> = (0..n).map(|v| vec![v]).collect();
    let mut degree: Vec<usize> = (0..n).map(|v| adj[v].len()).collect();
    let mut alive = vec![true; n];
    let mut mark = vec![usize::MAX; n];
    let mut order = Vec::with_capacity(n);
    let mut lp: Vec<usize> = Vec::new();
    // Lazy min-heap over (degree, index): stale entries (dead vertices
    // or superseded degrees) are skipped on pop, so selection is the
    // exact lexicographic minimum the scan-based version would pick —
    // same ordering, without the Θ(n) scan per pivot.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> =
        (0..n).map(|v| Reverse((degree[v], v))).collect();

    let mut step = 0usize;
    while order.len() < n {
        // Minimum approximate degree, smallest index on ties.
        let p = loop {
            let Reverse((d, v)) = heap.pop().expect("alive variable remains");
            if alive[v] && degree[v] == d {
                break v;
            }
        };
        // Boundary of the new element: uncovered neighbors plus the
        // boundaries of every adjacent element.
        lp.clear();
        for &u in &adj[p] {
            if alive[u] && mark[u] != step {
                mark[u] = step;
                lp.push(u);
            }
        }
        for &e in &elems[p] {
            for &u in &elem_nodes[e] {
                if u != p && alive[u] && mark[u] != step {
                    mark[u] = step;
                    lp.push(u);
                }
            }
        }
        lp.sort_unstable();
        alive[p] = false;
        // Mass elimination: the pivot's merged variables leave together,
        // consecutively.
        order.append(&mut members[p]);
        // Absorb the elements p touched (their boundaries are now
        // covered by element p), then clean every boundary variable.
        let old_elems = std::mem::take(&mut elems[p]);
        for &e in &old_elems {
            absorbed[e] = true;
            elem_nodes[e].clear();
        }
        for &v in &lp {
            // Edges into the new element's boundary (and to p itself)
            // are covered by the element.
            adj[v].retain(|&u| u != p && alive[u] && mark[u] != step);
            elems[v].retain(|&e| !absorbed[e]);
            elems[v].push(p);
        }
        // Supervariable detection: boundary variables with identical
        // cleaned adjacency (same uncovered edges, same elements —
        // mutual edges are covered by element p, so plain equality is
        // the indistinguishability test) merge into the
        // smallest-indexed representative.
        if lp.len() > 1 {
            let mut keyed: Vec<(u64, usize)> = lp
                .iter()
                .map(|&v| (quotient_hash(&adj[v], &elems[v]), v))
                .collect();
            keyed.sort_unstable();
            let mut i = 0;
            while i < keyed.len() {
                let mut j = i + 1;
                while j < keyed.len() && keyed[j].0 == keyed[i].0 {
                    j += 1;
                }
                for a in i..j {
                    let va = keyed[a].1;
                    if !alive[va] {
                        continue;
                    }
                    for b in a + 1..j {
                        let vb = keyed[b].1;
                        if alive[vb] && adj[va] == adj[vb] && elems[va] == elems[vb] {
                            weight[va] += weight[vb];
                            alive[vb] = false;
                            let mut absorbed_members = std::mem::take(&mut members[vb]);
                            members[va].append(&mut absorbed_members);
                            adj[vb].clear();
                            elems[vb].clear();
                        }
                    }
                }
                i = j;
            }
        }
        // Weighted approximate external degrees for the surviving
        // boundary variables (overlapping element boundaries counted
        // once per element — the "approximate" in AMD). The new
        // element's weight is installed first so it contributes like
        // any other adjacent element, and the constant per-element
        // weights keep this loop O(#elements) per variable.
        let lp_weight: usize = lp.iter().filter(|&&u| alive[u]).map(|&u| weight[u]).sum();
        elem_weight[p] = lp_weight;
        for &v in &lp {
            if !alive[v] {
                continue;
            }
            let mut d: usize = adj[v]
                .iter()
                .filter(|&&u| alive[u])
                .map(|&u| weight[u])
                .sum();
            for &e in &elems[v] {
                d += elem_weight[e] - weight[v];
            }
            degree[v] = d;
            heap.push(Reverse((d, v)));
        }
        adj[p].clear();
        elem_nodes[p] = lp.iter().copied().filter(|&u| alive[u]).collect();
        step += 1;
    }
    // Elimination-tree postorder: a topological reordering of the
    // etree leaves the fill unchanged (for the symmetrized pattern)
    // but places each subtree's columns consecutively. It fixes the
    // pivot order every AMD factor and its results are pinned to.
    etree_postorder(n, row_ptr, col_idx, &order)
}

/// FNV-1a hash of a variable's quotient-graph adjacency, used to bucket
/// candidate supervariable merges before the exact comparison.
fn quotient_hash(adj: &[usize], elems: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &u in adj {
        h = (h ^ (u as u64 + 1)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h = (h ^ u64::MAX).wrapping_mul(0x0000_0100_0000_01b3);
    for &e in elems {
        h = (h ^ (e as u64 + 1)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Refines a fill permutation by postordering the elimination tree of the
/// symmetrically permuted pattern. Returns the composed permutation
/// (`result[k]` = original index at permuted position `k`). Fill and flop
/// counts of the factorization are invariant under this reordering; only
/// the column adjacency changes.
fn etree_postorder(n: usize, row_ptr: &[usize], col_idx: &[usize], perm: &[usize]) -> Vec<usize> {
    let mut pinv = vec![0usize; n];
    for (k, &v) in perm.iter().enumerate() {
        pinv[v] = k;
    }
    // Liu's algorithm with path compression over the symmetrized pattern.
    let mut parent = vec![usize::MAX; n];
    let mut ancestor = vec![usize::MAX; n];
    // Permuted upper-triangular adjacency: for column j (permuted), the
    // permuted rows i < j of A + Aᵀ.
    let mut cols: Vec<Vec<usize>> = vec![Vec::new(); n];
    for r in 0..n {
        for p in row_ptr[r]..row_ptr[r + 1] {
            let (i, j) = (pinv[r], pinv[col_idx[p]]);
            if i < j {
                cols[j].push(i);
            } else if j < i {
                cols[i].push(j);
            }
        }
    }
    for j in 0..n {
        for idx in 0..cols[j].len() {
            let mut r = cols[j][idx];
            while ancestor[r] != usize::MAX && ancestor[r] != j {
                let next = ancestor[r];
                ancestor[r] = j;
                r = next;
            }
            if ancestor[r] == usize::MAX && r != j {
                ancestor[r] = j;
                parent[r] = j;
            }
        }
    }
    // Children lists in ascending order make the postorder deterministic.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut roots: Vec<usize> = Vec::new();
    for v in 0..n {
        if parent[v] == usize::MAX {
            roots.push(v);
        } else {
            children[parent[v]].push(v);
        }
    }
    let mut post = Vec::with_capacity(n);
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for &root in &roots {
        stack.push((root, 0));
        while let Some(&(v, ci)) = stack.last() {
            if ci < children[v].len() {
                stack.last_mut().expect("nonempty").1 += 1;
                stack.push((children[v][ci], 0));
            } else {
                post.push(v);
                stack.pop();
            }
        }
    }
    debug_assert_eq!(post.len(), n);
    post.iter().map(|&k| perm[k]).collect()
}

/// The ordering selector carried through options structs and the session
/// API. `Auto` (the default) resolves per matrix size at analysis time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OrderingChoice {
    /// Natural MNA index order (identity permutation).
    Natural,
    /// Approximate minimum degree.
    Amd,
    /// AMD for systems with at least
    /// [`OrderingChoice::AUTO_AMD_THRESHOLD`] unknowns, natural below.
    #[default]
    Auto,
}

impl OrderingChoice {
    /// Dimension at which `Auto` switches from natural order to AMD. Below
    /// this the whole factorization fits in cache and the ordering pass
    /// costs more than the fill it saves; the Table I 10×10 mesh (102
    /// unknowns) deliberately stays natural so seeded regression results
    /// are bit-stable.
    pub const AUTO_AMD_THRESHOLD: usize = 128;

    /// Resolves `Auto` against a concrete dimension; concrete choices
    /// return themselves.
    pub fn resolve(self, n: usize) -> OrderingChoice {
        match self {
            OrderingChoice::Auto => {
                if n >= Self::AUTO_AMD_THRESHOLD {
                    OrderingChoice::Amd
                } else {
                    OrderingChoice::Natural
                }
            }
            other => other,
        }
    }

    /// Computes the permutation for the given CSR pattern (resolving
    /// `Auto` against `n` first): `perm[k]` is the original row/column
    /// index placed at permuted position `k`.
    pub fn perm(self, n: usize, row_ptr: &[usize], col_idx: &[usize]) -> Vec<usize> {
        if self.resolve(n) == OrderingChoice::Amd {
            amd(n, row_ptr, col_idx)
        } else {
            (0..n).collect()
        }
    }

    /// Lowercase tag for reports; `Auto` reports as "auto".
    pub fn name(self) -> &'static str {
        match self {
            OrderingChoice::Natural => "natural",
            OrderingChoice::Amd => "amd",
            OrderingChoice::Auto => "auto",
        }
    }
}

/// Builds the adjacency structure of `A + Aᵀ` without the diagonal, in
/// flat `(xadj, adj)` form with each neighbor list sorted ascending.
/// Orderings run on this symmetrized pattern because LU with symmetric
/// permutation eliminates rows and columns together.
pub(crate) fn symmetrized_adjacency(
    n: usize,
    row_ptr: &[usize],
    col_idx: &[usize],
) -> (Vec<usize>, Vec<usize>) {
    let mut nbr: Vec<Vec<usize>> = vec![Vec::new(); n];
    for r in 0..n {
        for p in row_ptr[r]..row_ptr[r + 1] {
            let c = col_idx[p];
            if c != r {
                nbr[r].push(c);
                nbr[c].push(r);
            }
        }
    }
    let mut xadj = Vec::with_capacity(n + 1);
    xadj.push(0);
    let mut adj = Vec::new();
    for list in nbr.iter_mut() {
        list.sort_unstable();
        list.dedup();
        adj.extend_from_slice(list);
        xadj.push(adj.len());
    }
    (xadj, adj)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2-D Laplacian-style mesh pattern (the structure of the Table I
    /// resistor grid).
    fn mesh_pattern(m: usize) -> (usize, Vec<usize>, Vec<usize>) {
        let n = m * m;
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        row_ptr.push(0);
        for r in 0..m {
            for c in 0..m {
                let v = r * m + c;
                col_idx.push(v);
                if c + 1 < m {
                    col_idx.push(v + 1);
                }
                if r + 1 < m {
                    col_idx.push(v + m);
                }
                if c > 0 {
                    col_idx.push(v - 1);
                }
                if r > 0 {
                    col_idx.push(v - m);
                }
                row_ptr.push(col_idx.len());
            }
        }
        (n, row_ptr, col_idx)
    }

    fn assert_permutation(perm: &[usize], n: usize) {
        assert_eq!(perm.len(), n);
        let mut seen = vec![false; n];
        for &p in perm {
            assert!(p < n && !seen[p], "not a permutation: {perm:?}");
            seen[p] = true;
        }
    }

    #[test]
    fn natural_is_identity() {
        let (n, rp, ci) = mesh_pattern(4);
        let perm = OrderingChoice::Natural.perm(n, &rp, &ci);
        assert_eq!(perm, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn amd_produces_valid_permutations() {
        for m in [1, 2, 3, 5, 8] {
            let (n, rp, ci) = mesh_pattern(m);
            assert_permutation(&amd(n, &rp, &ci), n);
        }
    }

    #[test]
    fn orderings_are_deterministic() {
        let (n, rp, ci) = mesh_pattern(7);
        assert_eq!(amd(n, &rp, &ci), amd(n, &rp, &ci));
    }

    #[test]
    fn disconnected_graph_covered() {
        // Two disjoint 2-cliques plus an isolated vertex.
        let row_ptr = vec![0, 1, 2, 3, 4, 4];
        let col_idx = vec![1, 0, 3, 2];
        assert_permutation(&amd(5, &row_ptr, &col_idx), 5);
    }

    #[test]
    fn auto_resolves_by_threshold() {
        assert_eq!(OrderingChoice::Auto.resolve(10), OrderingChoice::Natural);
        assert_eq!(
            OrderingChoice::Auto.resolve(OrderingChoice::AUTO_AMD_THRESHOLD),
            OrderingChoice::Amd
        );
        assert_eq!(OrderingChoice::Amd.resolve(10), OrderingChoice::Amd);
        assert_eq!(OrderingChoice::default(), OrderingChoice::Auto);
        assert_eq!(OrderingChoice::Amd.name(), "amd");
        assert_eq!(OrderingChoice::Auto.name(), "auto");
    }

    #[test]
    fn symmetrized_adjacency_unions_pattern() {
        // Asymmetric pattern: (0,1) present, (1,0) absent.
        let row_ptr = vec![0, 2, 3];
        let col_idx = vec![0, 1, 1];
        let (xadj, adj) = symmetrized_adjacency(2, &row_ptr, &col_idx);
        assert_eq!(adj[xadj[0]..xadj[1]], [1]);
        assert_eq!(adj[xadj[1]..xadj[2]], [0]);
    }
}
