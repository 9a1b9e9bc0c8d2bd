//! Sparse (CSC) LU with KLU-style analyze-once / factor-many /
//! refactor-cheap reuse.
//!
//! MNA matrices are >90 % zeros past a few dozen nodes and their
//! sparsity pattern never changes within a topology, so the Newton loop
//! should pay for symbolic work exactly once:
//!
//! 1. **Analyze** ([`Symbolic::analyze`]) — once per topology: a
//!    fill-reducing minimum-degree ordering on the symmetrised pattern,
//!    plus a canonical permuted CSC pattern and the scatter map from the
//!    caller's entry order into it.
//! 2. **Factor** ([`SparseSolver::solve_in_place`], first call) — a
//!    left-looking Gilbert–Peierls LU with partial pivoting that
//!    discovers the numeric fill pattern by depth-first search and
//!    records it.
//! 3. **Refactor** (every later call) — numeric-only: the recorded
//!    pattern, pivot sequence and update order are replayed on the new
//!    values. When a recorded pivot decays below the relative threshold
//!    ([`crate::lu::pivot_threshold`]) the solver transparently falls
//!    back to a full re-pivoting factor for that call.
//! 4. **Solve** — permuted forward/back substitution through the stored
//!    factors, overwriting the right-hand side with the solution.
//!
//! A Newton loop assembles straight into the solver's permuted value
//! array ([`SparseSolver::values_mut`], addressed through
//! [`Symbolic::position`]) and solves in its own right-hand-side
//! buffer, so an iteration neither allocates nor scatters.
//! [`SparseSolver::solve`] is the one-shot form over the same core: it
//! scatters values given in the pattern's own entry order and returns
//! the solution in a new vector.
//!
//! Refactoring the *same* values a factor just saw replays the identical
//! floating-point operation sequence, so factor → refactor is
//! bit-identical — the conformance suite pins this. Ordering is
//! deterministic (ties break on the smallest index) and the permuted
//! pattern is canonical, so two node-relabelled copies of one system
//! given composed orderings produce bit-identical solutions; the
//! metamorphic suite pins that too.

use crate::lu::pivot_threshold;
use crate::matrix::SolveMatrixError;

/// Sentinel for "row not yet pivotal" while the first factor is
/// discovering the pivot sequence.
const UNSET: usize = usize::MAX;

/// Structure-only compressed-sparse-column pattern of a square matrix.
///
/// Rows within each column are sorted and deduplicated; the entry order
/// exposed to callers (for value arrays) is column-major over this
/// sorted layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CscPattern {
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
}

impl CscPattern {
    /// Builds a pattern from `(row, col)` coordinates, deduplicating
    /// repeats.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or any coordinate is out of bounds.
    pub fn from_entries(n: usize, entries: &[(usize, usize)]) -> Self {
        assert!(n > 0, "pattern dimension must be nonzero");
        let mut cols: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(r, c) in entries {
            assert!(r < n && c < n, "pattern entry ({r}, {c}) out of bounds");
            cols[c].push(r);
        }
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut row_idx = Vec::new();
        col_ptr.push(0);
        for col in &mut cols {
            col.sort_unstable();
            col.dedup();
            row_idx.extend_from_slice(col);
            col_ptr.push(row_idx.len());
        }
        CscPattern {
            n,
            col_ptr,
            row_idx,
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of structural nonzeros.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Sorted row indices of column `c`.
    pub fn col_rows(&self, c: usize) -> &[usize] {
        &self.row_idx[self.col_ptr[c]..self.col_ptr[c + 1]]
    }

    /// Value-array index of entry `(r, c)`, or `None` if the position is
    /// structurally zero. O(log degree) binary search within the column.
    pub fn entry(&self, r: usize, c: usize) -> Option<usize> {
        let lo = self.col_ptr[c];
        let hi = self.col_ptr[c + 1];
        self.row_idx[lo..hi].binary_search(&r).ok().map(|k| lo + k)
    }
}

/// Deterministic greedy minimum-degree ordering on the symmetrised
/// pattern `A + Aᵀ` (the standard AMD-style preprocessing target);
/// ties break on the smallest vertex index. Returns `perm` with
/// `perm[k]` = original index eliminated k-th.
pub fn min_degree_ordering(pattern: &CscPattern) -> Vec<usize> {
    let n = pattern.dim();
    let mut adj: Vec<std::collections::BTreeSet<usize>> =
        vec![std::collections::BTreeSet::new(); n];
    for c in 0..n {
        for &r in pattern.col_rows(c) {
            if r != c {
                adj[r].insert(c);
                adj[c].insert(r);
            }
        }
    }
    let mut alive = vec![true; n];
    let mut perm = Vec::with_capacity(n);
    for _ in 0..n {
        let v = (0..n)
            .filter(|&i| alive[i])
            .min_by_key(|&i| (adj[i].len(), i))
            .expect("a live vertex remains");
        perm.push(v);
        alive[v] = false;
        let nbrs: Vec<usize> = adj[v].iter().copied().collect();
        for &u in &nbrs {
            adj[u].remove(&v);
        }
        // Eliminating v turns its neighbourhood into a clique — that is
        // exactly the fill the numeric factor will create.
        for (i, &a) in nbrs.iter().enumerate() {
            for &b in &nbrs[i + 1..] {
                adj[a].insert(b);
                adj[b].insert(a);
            }
        }
    }
    perm
}

/// Symbolic analysis of one sparsity pattern: the fill-reducing
/// ordering, the canonical permuted pattern `Â = A(p, p)`, and the
/// scatter map from the caller's entry order into `Â`'s.
#[derive(Debug, Clone)]
pub struct Symbolic {
    n: usize,
    /// `perm[k]` = original index in eliminated position `k`.
    perm: Vec<usize>,
    /// Permuted pattern, CSC, rows sorted within each column.
    ap: Vec<usize>,
    ai: Vec<usize>,
    /// `map[e]` = position in the permuted value array of the caller's
    /// entry `e` (column-major over the original sorted pattern).
    map: Vec<usize>,
}

impl Symbolic {
    /// Analyzes `pattern` under the built-in minimum-degree ordering.
    pub fn analyze(pattern: &CscPattern) -> Self {
        Self::with_ordering(pattern, min_degree_ordering(pattern))
    }

    /// Analyzes `pattern` under a caller-supplied elimination order
    /// (`perm[k]` = original index eliminated k-th). The permuted
    /// pattern is canonical — it depends only on `A(p, p)`, not on the
    /// original labelling — which is what makes relabelling metamorphic
    /// tests bit-exact.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..pattern.dim()`.
    pub fn with_ordering(pattern: &CscPattern, perm: Vec<usize>) -> Self {
        let n = pattern.dim();
        assert_eq!(perm.len(), n, "ordering length mismatch");
        let mut pinv = vec![UNSET; n];
        for (k, &o) in perm.iter().enumerate() {
            assert!(o < n && pinv[o] == UNSET, "ordering is not a permutation");
            pinv[o] = k;
        }
        // Gather each permuted column as (new_row, original_entry), sort
        // by new_row: the canonical layout plus the scatter map at once.
        let mut cols: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for c in 0..n {
            let lo = pattern.col_ptr[c];
            for (k, &r) in pattern.col_rows(c).iter().enumerate() {
                cols[pinv[c]].push((pinv[r], lo + k));
            }
        }
        let nnz = pattern.nnz();
        let mut ap = Vec::with_capacity(n + 1);
        let mut ai = Vec::with_capacity(nnz);
        let mut map = vec![0usize; nnz];
        ap.push(0);
        for col in &mut cols {
            col.sort_unstable();
            for &(new_row, orig_entry) in col.iter() {
                map[orig_entry] = ai.len();
                ai.push(new_row);
            }
            ap.push(ai.len());
        }
        Symbolic {
            n,
            perm,
            ap,
            ai,
            map,
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The elimination ordering (`perm[k]` = original index eliminated
    /// k-th).
    pub fn ordering(&self) -> &[usize] {
        &self.perm
    }

    /// Position in the solver's permuted value array
    /// ([`SparseSolver::values_mut`]) of the analysed pattern's entry
    /// `entry` (column-major sorted order, as produced by
    /// [`CscPattern::entry`]).
    ///
    /// # Panics
    ///
    /// Panics if `entry` is not an entry of the analysed pattern.
    pub fn position(&self, entry: usize) -> usize {
        self.map[entry]
    }
}

/// Which numeric path a [`SparseSolver::solve_in_place`] call took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorMode {
    /// Full factorisation with pivot discovery (first solve, or after a
    /// refactor fallback).
    Factor,
    /// Numeric-only replay of the recorded pattern and pivot sequence.
    Refactor,
    /// A recorded pivot decayed below threshold; the call transparently
    /// re-ran a full factor.
    RefactorFallback,
}

/// Lifetime counters for one [`SparseSolver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SparseStats {
    /// Full factorisations performed.
    pub factors: u64,
    /// Numeric-only refactorisations performed.
    pub refactors: u64,
    /// Refactor attempts that fell back to a full factor.
    pub fallbacks: u64,
}

/// Numeric LU factors in pivotal coordinates, plus everything a
/// numeric-only refactor needs to replay them.
#[derive(Debug, Clone)]
struct NumericLu {
    /// Column pointers / row indices / values of unit-diagonal `L`
    /// (strictly lower triangle, pivotal row coordinates, stored in the
    /// discovery order of the original factor).
    lp: Vec<usize>,
    li: Vec<usize>,
    lx: Vec<f64>,
    /// Strictly-upper `U` columns in the exact order the factor
    /// processed them (topological), so a refactor replays the identical
    /// operation sequence.
    up: Vec<usize>,
    ui: Vec<usize>,
    ux: Vec<f64>,
    /// `U` diagonal (the pivots).
    udiag: Vec<f64>,
    /// `qrow[j]` = original row index supplying pivot `j` (the composed
    /// row permutation applied to right-hand sides).
    qrow: Vec<usize>,
    /// Pivotal row coordinate of each permuted-pattern entry — the
    /// refactor scatter map.
    arow: Vec<usize>,
}

/// Sparse LU solver owning one symbolic analysis and its reusable
/// numeric state.
///
/// ```
/// use numkit::sparse::{CscPattern, SparseSolver};
///
/// // [[2, 1], [1, 3]]
/// let pattern = CscPattern::from_entries(2, &[(0, 0), (1, 0), (0, 1), (1, 1)]);
/// let mut solver = SparseSolver::new(&pattern);
/// // Values in the pattern's column-major sorted entry order.
/// let (x, _) = solver.solve(&[2.0, 1.0, 1.0, 3.0], &[3.0, 5.0]).unwrap();
/// assert!((x[0] - 0.8).abs() < 1e-12 && (x[1] - 1.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SparseSolver {
    sym: Symbolic,
    lu: Option<NumericLu>,
    /// The matrix to factor, in the permuted pattern's entry order.
    ax: Vec<f64>,
    /// Dense accumulator for one column.
    work: Vec<f64>,
    /// Substitution vector in pivotal coordinates.
    y: Vec<f64>,
    /// Visit stamps for the DFS / scatter, versioned by `stamp`.
    mark: Vec<usize>,
    stamp: usize,
    stats: SparseStats,
}

impl SparseSolver {
    /// Analyzes `pattern` (minimum-degree ordering) and prepares
    /// solver scratch.
    pub fn new(pattern: &CscPattern) -> Self {
        Self::with_symbolic(Symbolic::analyze(pattern))
    }

    /// Builds a solver over an existing symbolic analysis.
    pub fn with_symbolic(sym: Symbolic) -> Self {
        let n = sym.n;
        let nnz = sym.ai.len();
        SparseSolver {
            sym,
            lu: None,
            ax: vec![0.0; nnz],
            work: vec![0.0; n],
            y: vec![0.0; n],
            mark: vec![0; n],
            stamp: 0,
            stats: SparseStats::default(),
        }
    }

    /// The symbolic analysis this solver replays.
    pub fn symbolic(&self) -> &Symbolic {
        &self.sym
    }

    /// Lifetime factor/refactor counters.
    pub fn stats(&self) -> SparseStats {
        self.stats
    }

    /// Structural nonzeros in the current `L` and `U` factors (including
    /// the diagonal), or `None` before the first factorisation.
    pub fn factor_nnz(&self) -> Option<usize> {
        self.lu
            .as_ref()
            .map(|lu| lu.li.len() + lu.ui.len() + lu.udiag.len())
    }

    /// The matrix the next [`Self::solve_in_place`] factors, in the
    /// permuted order: entry `e` of the analysed pattern lives at
    /// [`Symbolic::position`]`(e)`. Callers overwrite every position
    /// before each solve; the solver only reads it.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.ax
    }

    /// Solves `A·x = b` for the matrix in [`Self::values_mut`],
    /// overwriting `b` with `x`. The first call factors; later calls
    /// replay a numeric-only refactor, falling back to a full factor if
    /// a recorded pivot decays below the relative threshold. Neither
    /// the refactor nor the substitution allocates.
    ///
    /// # Errors
    ///
    /// [`SolveMatrixError::DimensionMismatch`] for a wrong-length `b`,
    /// [`SolveMatrixError::Singular`] (with the failing elimination
    /// step) when even full pivoting cannot find an acceptable pivot;
    /// `b` is then left as it was.
    pub fn solve_in_place(&mut self, b: &mut [f64]) -> Result<FactorMode, SolveMatrixError> {
        let n = self.sym.n;
        if b.len() != n {
            return Err(SolveMatrixError::DimensionMismatch {
                expected: n,
                got: b.len(),
            });
        }
        let mode = if self.lu.is_some() {
            match self.refactor() {
                Ok(()) => {
                    self.stats.refactors += 1;
                    FactorMode::Refactor
                }
                Err(_) => {
                    self.factor()?;
                    self.stats.factors += 1;
                    self.stats.fallbacks += 1;
                    FactorMode::RefactorFallback
                }
            }
        } else {
            self.factor()?;
            self.stats.factors += 1;
            FactorMode::Factor
        };
        self.substitute(b);
        Ok(mode)
    }

    /// Solves `A·x = b` where `values[e]` is the number at the pattern's
    /// entry `e` (column-major sorted order, as produced by
    /// [`CscPattern::entry`]): scatters them into the permuted order and
    /// runs [`Self::solve_in_place`] on a copy of `b`.
    ///
    /// # Errors
    ///
    /// [`SolveMatrixError::DimensionMismatch`] for wrong-length inputs,
    /// plus the errors of [`Self::solve_in_place`].
    pub fn solve(
        &mut self,
        values: &[f64],
        b: &[f64],
    ) -> Result<(Vec<f64>, FactorMode), SolveMatrixError> {
        if values.len() != self.sym.map.len() {
            return Err(SolveMatrixError::DimensionMismatch {
                expected: self.sym.map.len(),
                got: values.len(),
            });
        }
        for (e, &v) in values.iter().enumerate() {
            self.ax[self.sym.map[e]] = v;
        }
        let mut x = b.to_vec();
        let mode = self.solve_in_place(&mut x)?;
        Ok((x, mode))
    }

    /// Left-looking Gilbert–Peierls factorisation with partial pivoting
    /// and DFS pattern discovery. Rebuilds `self.lu` from `self.ax`.
    fn factor(&mut self) -> Result<(), SolveMatrixError> {
        let n = self.sym.n;
        // Pivot bookkeeping in *permuted-row* coordinates while the
        // sequence is being discovered.
        let mut pinv = vec![UNSET; n]; // permuted row -> pivot position
        let mut prow = vec![UNSET; n]; // pivot position -> permuted row
        let mut lp = vec![0usize; n + 1];
        let mut li: Vec<usize> = Vec::new(); // permuted-row coords (remapped later)
        let mut lx: Vec<f64> = Vec::new();
        let mut up = vec![0usize; n + 1];
        let mut ui: Vec<usize> = Vec::new(); // pivot positions
        let mut ux: Vec<f64> = Vec::new();
        let mut udiag = vec![0.0f64; n];
        // Reverse-postorder DFS scratch.
        let mut pattern: Vec<usize> = Vec::with_capacity(n);
        let mut stack: Vec<(usize, usize)> = Vec::with_capacity(n);
        self.mark.fill(0);
        self.stamp = 0;

        for j in 0..n {
            self.stamp += 1;
            let stamp = self.stamp;
            pattern.clear();
            // Symbolic step: every permuted row reachable from column
            // j's structural rows through already-pivotal columns of L.
            for &seed in &self.sym.ai[self.sym.ap[j]..self.sym.ap[j + 1]] {
                if self.mark[seed] == stamp {
                    continue;
                }
                stack.push((seed, 0));
                self.mark[seed] = stamp;
                while let Some((node, child)) = stack.pop() {
                    let kids: &[usize] = if pinv[node] != UNSET {
                        let col = pinv[node];
                        &li[lp[col]..lp[col + 1]]
                    } else {
                        &[]
                    };
                    let mut descended = false;
                    for (off, &kid) in kids.iter().enumerate().skip(child) {
                        if self.mark[kid] != stamp {
                            self.mark[kid] = stamp;
                            stack.push((node, off + 1));
                            stack.push((kid, 0));
                            descended = true;
                            break;
                        }
                    }
                    if !descended {
                        pattern.push(node);
                    }
                }
            }
            // Numeric step, in reverse postorder (topological for the
            // pivotal part). Scatter first:
            let mut col_max = 0.0f64;
            for e in self.sym.ap[j]..self.sym.ap[j + 1] {
                let r = self.sym.ai[e];
                self.work[r] = self.ax[e];
                let m = self.ax[e].abs();
                if m > col_max {
                    col_max = m;
                }
            }
            up[j] = ui.len();
            for &r in pattern.iter().rev() {
                let col = pinv[r];
                if col == UNSET {
                    continue;
                }
                let u_val = self.work[r];
                ui.push(col);
                ux.push(u_val);
                if u_val != 0.0 {
                    for (l_row, l_val) in li[lp[col]..lp[col + 1]]
                        .iter()
                        .zip(&lx[lp[col]..lp[col + 1]])
                    {
                        self.work[*l_row] -= l_val * u_val;
                    }
                }
            }
            // Pivot: largest remaining (non-pivotal) magnitude.
            let mut pivot_row = UNSET;
            let mut pivot_mag = -1.0f64;
            for &r in &pattern {
                if pinv[r] == UNSET {
                    let m = self.work[r].abs();
                    if m > pivot_mag {
                        pivot_mag = m;
                        pivot_row = r;
                    }
                }
            }
            if pivot_row == UNSET || pivot_mag < pivot_threshold(col_max) {
                // Reset scratch before reporting failure.
                for &r in &pattern {
                    self.work[r] = 0.0;
                }
                return Err(SolveMatrixError::Singular { step: j });
            }
            let pivot = self.work[pivot_row];
            udiag[j] = pivot;
            pinv[pivot_row] = j;
            prow[j] = pivot_row;
            lp[j] = li.len();
            for &r in &pattern {
                if pinv[r] == UNSET {
                    li.push(r);
                    lx.push(self.work[r] / pivot);
                }
            }
            lp[j + 1] = li.len();
            up[j + 1] = ui.len();
            for &r in &pattern {
                self.work[r] = 0.0;
            }
        }
        // Remap L rows and the pattern scatter into pivotal coordinates.
        for r in li.iter_mut() {
            *r = pinv[*r];
        }
        let arow: Vec<usize> = self.sym.ai.iter().map(|&r| pinv[r]).collect();
        let qrow: Vec<usize> = prow.iter().map(|&r| self.sym.perm[r]).collect();
        self.lu = Some(NumericLu {
            lp,
            li,
            lx,
            up,
            ui,
            ux,
            udiag,
            qrow,
            arow,
        });
        Ok(())
    }

    /// Numeric-only refactor: replays the recorded pattern, pivot
    /// sequence and update order on the current `self.ax`.
    fn refactor(&mut self) -> Result<(), SolveMatrixError> {
        let lu = self.lu.as_mut().expect("refactor requires prior factor");
        let n = self.sym.n;
        for j in 0..n {
            // Scatter column j of Â in pivotal coordinates.
            let mut col_max = 0.0f64;
            for e in self.sym.ap[j]..self.sym.ap[j + 1] {
                self.work[lu.arow[e]] = self.ax[e];
                let m = self.ax[e].abs();
                if m > col_max {
                    col_max = m;
                }
            }
            // Replay updates in the recorded (topological) order.
            for pos in lu.up[j]..lu.up[j + 1] {
                let col = lu.ui[pos];
                let u_val = self.work[col];
                lu.ux[pos] = u_val;
                self.work[col] = 0.0;
                if u_val != 0.0 {
                    for (l_row, l_val) in lu.li[lu.lp[col]..lu.lp[col + 1]]
                        .iter()
                        .zip(&lu.lx[lu.lp[col]..lu.lp[col + 1]])
                    {
                        self.work[*l_row] -= l_val * u_val;
                    }
                }
            }
            let pivot = self.work[j];
            self.work[j] = 0.0;
            if pivot.abs() < pivot_threshold(col_max) {
                // Clear remaining scratch (the L rows of this column).
                for pos in lu.lp[j]..lu.lp[j + 1] {
                    self.work[lu.li[pos]] = 0.0;
                }
                return Err(SolveMatrixError::Singular { step: j });
            }
            lu.udiag[j] = pivot;
            for pos in lu.lp[j]..lu.lp[j + 1] {
                let r = lu.li[pos];
                lu.lx[pos] = self.work[r] / pivot;
                self.work[r] = 0.0;
            }
        }
        Ok(())
    }

    /// Permuted forward/back substitution through the stored factors,
    /// from `b` into `b` through the solver's own scratch.
    fn substitute(&mut self, b: &mut [f64]) {
        let lu = self.lu.as_ref().expect("solve requires factors");
        let n = self.sym.n;
        let y = &mut self.y;
        for (j, yj) in y.iter_mut().enumerate() {
            *yj = b[lu.qrow[j]];
        }
        for j in 0..n {
            let yj = y[j];
            if yj != 0.0 {
                for (r, l_val) in lu.li[lu.lp[j]..lu.lp[j + 1]]
                    .iter()
                    .zip(&lu.lx[lu.lp[j]..lu.lp[j + 1]])
                {
                    y[*r] -= l_val * yj;
                }
            }
        }
        for j in (0..n).rev() {
            let yj = y[j] / lu.udiag[j];
            y[j] = yj;
            if yj != 0.0 {
                for (r, u_val) in lu.ui[lu.up[j]..lu.up[j + 1]]
                    .iter()
                    .zip(&lu.ux[lu.up[j]..lu.up[j + 1]])
                {
                    y[*r] -= u_val * yj;
                }
            }
        }
        for (j, &yj) in y.iter().enumerate() {
            b[self.sym.perm[j]] = yj;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_pattern(n: usize) -> CscPattern {
        let mut entries = Vec::new();
        for c in 0..n {
            for r in 0..n {
                entries.push((r, c));
            }
        }
        CscPattern::from_entries(n, &entries)
    }

    fn dense_values(pattern: &CscPattern, rows: &[&[f64]]) -> Vec<f64> {
        let n = pattern.dim();
        let mut v = vec![0.0; pattern.nnz()];
        for (r, row) in rows.iter().enumerate() {
            for c in 0..n {
                if let Some(e) = pattern.entry(r, c) {
                    v[e] = row[c];
                }
            }
        }
        v
    }

    #[test]
    fn pattern_entry_lookup() {
        let p = CscPattern::from_entries(3, &[(0, 0), (2, 0), (1, 1), (0, 2), (2, 2), (2, 0)]);
        assert_eq!(p.nnz(), 5, "duplicates collapse");
        assert!(p.entry(0, 0).is_some());
        assert!(p.entry(1, 0).is_none());
        assert_eq!(p.col_rows(0), &[0, 2]);
    }

    #[test]
    fn min_degree_is_a_permutation() {
        let p = CscPattern::from_entries(
            4,
            &[
                (0, 0),
                (1, 1),
                (2, 2),
                (3, 3),
                (0, 3),
                (3, 0),
                (1, 2),
                (2, 1),
            ],
        );
        let mut perm = min_degree_ordering(&p);
        perm.sort_unstable();
        assert_eq!(perm, vec![0, 1, 2, 3]);
    }

    #[test]
    fn solves_known_3x3() {
        let p = dense_pattern(3);
        let v = dense_values(
            &p,
            &[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]],
        );
        let mut s = SparseSolver::new(&p);
        let (x, mode) = s.solve(&v, &[8.0, -11.0, -3.0]).unwrap();
        assert_eq!(mode, FactorMode::Factor);
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_diagonal_needs_pivoting() {
        // [[0, 1], [1, 0]] — the MNA voltage-source shape.
        let p = dense_pattern(2);
        let v = dense_values(&p, &[&[0.0, 1.0], &[1.0, 0.0]]);
        let mut s = SparseSolver::new(&p);
        let (x, _) = s.solve(&v, &[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_reports_step() {
        let p = dense_pattern(2);
        let v = dense_values(&p, &[&[1.0, 2.0], &[2.0, 4.0]]);
        let mut s = SparseSolver::new(&p);
        match s.solve(&v, &[1.0, 2.0]) {
            Err(SolveMatrixError::Singular { .. }) => {}
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn structurally_empty_column_is_singular() {
        let p = CscPattern::from_entries(2, &[(0, 0), (1, 0), (0, 1), (1, 1)]);
        let mut s = SparseSolver::new(&p);
        // Column of zeros (structural entries, numeric zeros).
        match s.solve(&[1.0, 1.0, 0.0, 0.0], &[1.0, 1.0]) {
            Err(SolveMatrixError::Singular { .. }) => {}
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn refactor_replays_factor_bitwise() {
        let p = dense_pattern(3);
        let v = dense_values(
            &p,
            &[&[4.0, -2.0, 1.0], &[3.0, 6.0, -4.0], &[2.0, 1.0, 8.0]],
        );
        let b = [1.0, 2.0, 3.0];
        let mut s = SparseSolver::new(&p);
        let (x1, m1) = s.solve(&v, &b).unwrap();
        let (x2, m2) = s.solve(&v, &b).unwrap();
        assert_eq!(m1, FactorMode::Factor);
        assert_eq!(m2, FactorMode::Refactor);
        for (a, b) in x1.iter().zip(&x2) {
            assert_eq!(a.to_bits(), b.to_bits(), "refactor must be bit-identical");
        }
        assert_eq!(s.stats().factors, 1);
        assert_eq!(s.stats().refactors, 1);
    }

    #[test]
    fn refactor_tracks_changed_values() {
        let p = dense_pattern(2);
        let mut s = SparseSolver::new(&p);
        let v1 = dense_values(&p, &[&[2.0, 0.0], &[0.0, 2.0]]);
        let (x1, _) = s.solve(&v1, &[2.0, 4.0]).unwrap();
        assert!((x1[0] - 1.0).abs() < 1e-12 && (x1[1] - 2.0).abs() < 1e-12);
        let v2 = dense_values(&p, &[&[4.0, 0.0], &[0.0, 8.0]]);
        let (x2, mode) = s.solve(&v2, &[2.0, 4.0]).unwrap();
        assert_eq!(mode, FactorMode::Refactor);
        assert!((x2[0] - 0.5).abs() < 1e-12 && (x2[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pivot_decay_falls_back_to_full_factor() {
        // First system pivots on the diagonal; the second makes that
        // recorded pivot tiny relative to its column, forcing fallback.
        let p = dense_pattern(2);
        let mut s = SparseSolver::new(&p);
        let v1 = dense_values(&p, &[&[1.0, 0.5], &[0.5, 1.0]]);
        s.solve(&v1, &[1.0, 1.0]).unwrap();
        let v2 = dense_values(&p, &[&[1e-18, 1.0], &[1.0, 1.0]]);
        let (x, mode) = s.solve(&v2, &[1.0, 2.0]).unwrap();
        assert_eq!(mode, FactorMode::RefactorFallback);
        // x0 + x1 ≈ … solve exactly: [[1e-18,1],[1,1]]x=[1,2] → x1≈1, x0≈1.
        assert!((x[0] - 1.0).abs() < 1e-9 && (x[1] - 1.0).abs() < 1e-9);
        assert_eq!(s.stats().fallbacks, 1);
    }

    #[test]
    fn tiny_uniform_scale_solves() {
        // The old absolute 1e-300 threshold would call this singular.
        let p = dense_pattern(2);
        let scale = 1e-160;
        let v = dense_values(&p, &[&[2.0 * scale, scale], &[scale, 3.0 * scale]]);
        let mut s = SparseSolver::new(&p);
        let (x, _) = s.solve(&v, &[3.0 * scale, 5.0 * scale]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-10);
        assert!((x[1] - 1.4).abs() < 1e-10);
    }

    #[test]
    fn sparse_tridiagonal_matches_dense() {
        let n = 12;
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i));
            if i + 1 < n {
                entries.push((i, i + 1));
                entries.push((i + 1, i));
            }
        }
        let p = CscPattern::from_entries(n, &entries);
        let mut v = vec![0.0; p.nnz()];
        for i in 0..n {
            v[p.entry(i, i).unwrap()] = 2.0 + i as f64 * 0.1;
            if i + 1 < n {
                v[p.entry(i, i + 1).unwrap()] = -1.0;
                v[p.entry(i + 1, i).unwrap()] = -1.0;
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut s = SparseSolver::new(&p);
        let (x, _) = s.solve(&v, &b).unwrap();
        // Dense reference.
        let mut dense = crate::Matrix::zeros(n, n);
        for i in 0..n {
            dense[(i, i)] = 2.0 + i as f64 * 0.1;
            if i + 1 < n {
                dense[(i, i + 1)] = -1.0;
                dense[(i + 1, i)] = -1.0;
            }
        }
        let xd = dense.solve(&b).unwrap();
        for (a, b) in x.iter().zip(&xd) {
            assert!((a - b).abs() < 1e-12, "sparse {a} vs dense {b}");
        }
        // Tridiagonal under min-degree ordering should stay sparse:
        // far fewer stored entries than the dense n².
        assert!(s.factor_nnz().unwrap() < n * n / 2);
    }

    #[test]
    fn in_place_solve_matches_the_one_shot_form() {
        // Values written at their permuted positions and solved in the
        // right-hand side's own buffer give the one-shot form's bits.
        let p = dense_pattern(3);
        let v = dense_values(
            &p,
            &[&[4.0, -2.0, 1.0], &[3.0, 6.0, -4.0], &[2.0, 1.0, 8.0]],
        );
        let b = [1.0, 2.0, 3.0];
        let (x, _) = SparseSolver::new(&p).solve(&v, &b).unwrap();
        let mut s = SparseSolver::new(&p);
        for _ in 0..2 {
            for (e, &value) in v.iter().enumerate() {
                let pos = s.symbolic().position(e);
                s.values_mut()[pos] = value;
            }
            let mut xb = b;
            s.solve_in_place(&mut xb).unwrap();
            for (a, b) in x.iter().zip(&xb) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert_eq!(s.stats().factors, 1);
        assert_eq!(s.stats().refactors, 1);
        assert!(matches!(
            s.solve_in_place(&mut [1.0]),
            Err(SolveMatrixError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn wrong_lengths_are_reported() {
        let p = dense_pattern(2);
        let mut s = SparseSolver::new(&p);
        assert!(matches!(
            s.solve(&[1.0], &[1.0, 1.0]),
            Err(SolveMatrixError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            s.solve(&[1.0, 0.0, 0.0, 1.0], &[1.0]),
            Err(SolveMatrixError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn relabelled_system_is_bit_identical_after_ordering() {
        // Permute the labels of a system with σ, compose the ordering,
        // and demand bit-identical solutions: the canonical permuted
        // pattern erases the labelling.
        let n = 5;
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i));
        }
        entries.extend_from_slice(&[(0, 1), (1, 0), (1, 3), (3, 1), (2, 4), (4, 2), (0, 4)]);
        let p = CscPattern::from_entries(n, &entries);
        let mut v = vec![0.0; p.nnz()];
        for (e, val) in v.iter_mut().enumerate() {
            *val = ((e as f64) * 0.37).cos() + if e % (n + 1) == 0 { 3.0 } else { 0.0 };
        }
        for i in 0..n {
            v[p.entry(i, i).unwrap()] = 4.0 + i as f64;
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0) * 0.3).collect();
        let base_order = min_degree_ordering(&p);
        let mut s1 = SparseSolver::with_symbolic(Symbolic::with_ordering(&p, base_order.clone()));
        let (x1, _) = s1.solve(&v, &b).unwrap();

        // Relabel with σ: node i becomes sigma[i].
        let sigma = [2usize, 0, 4, 1, 3];
        let mut entries2 = Vec::new();
        for c in 0..n {
            for &r in p.col_rows(c) {
                entries2.push((sigma[r], sigma[c]));
            }
        }
        let p2 = CscPattern::from_entries(n, &entries2);
        let mut v2 = vec![0.0; p2.nnz()];
        for c in 0..n {
            for &r in p.col_rows(c) {
                let e = p.entry(r, c).unwrap();
                v2[p2.entry(sigma[r], sigma[c]).unwrap()] = v[e];
            }
        }
        let mut b2 = vec![0.0; n];
        for i in 0..n {
            b2[sigma[i]] = b[i];
        }
        // Composed ordering: eliminate σ(original k-th) k-th.
        let order2: Vec<usize> = base_order.iter().map(|&o| sigma[o]).collect();
        let mut s2 = SparseSolver::with_symbolic(Symbolic::with_ordering(&p2, order2));
        let (x2, _) = s2.solve(&v2, &b2).unwrap();
        for i in 0..n {
            assert_eq!(
                x1[i].to_bits(),
                x2[sigma[i]].to_bits(),
                "relabelled solve must be bit-identical after ordering"
            );
        }
    }
}
