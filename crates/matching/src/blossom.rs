//! Edmonds' blossom algorithm for maximum-weight matching in general
//! graphs, O(n³).
//!
//! This is the engine behind SYNPA's step 3 (§IV-B): with the predicted
//! slowdown of every application pair in hand, selecting the globally best
//! set of pairs is a minimum-weight perfect matching problem, which the
//! paper solves with the Blossom algorithm [Edmonds 1965] to avoid the
//! combinatorial explosion of enumerating pairings.
//!
//! The implementation follows the classical primal-dual formulation with
//! lazy dual adjustment: vertices carry dual labels, tight edges grow
//! alternating forests, odd cycles are contracted into blossom pseudo-nodes,
//! and dual updates are driven by per-node slack tracking. Vertices are
//! 1-indexed internally; pseudo-nodes occupy indices `n+1..`.
//!
//! The solver runs entirely inside a reusable [`Workspace`]: the adjacency
//! and blossom-membership matrices are flat row-major arrays sized
//! `(2n+2)²`, and every per-solve buffer is reset in place rather than
//! reallocated. The scheduler calls this once per quantum on dense n = 56
//! graphs, so the steady state must not allocate: both public entry points
//! ([`max_weight_matching`] and `min_cost_pairing`) borrow one thread-local
//! workspace.

use std::cell::RefCell;
use std::collections::VecDeque;

/// Edge record: `u`/`v` remember the *base-graph* endpoints an edge between
/// (possibly contracted) nodes refers to; `w` is its weight.
#[derive(Debug, Clone, Copy, Default)]
struct Edge {
    u: usize,
    v: usize,
    w: i64,
}

/// Reusable scratch for the blossom solver (and the pairing layer on top).
///
/// Holds every buffer a solve needs, grown monotonically to the largest
/// problem seen and reset in place per call, so repeated per-quantum
/// matchings are allocation-free after the first.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// Row-major `stride × stride` adjacency over vertices + pseudo-nodes.
    g: Vec<Edge>,
    /// Row-major `stride × stride` blossom-membership map.
    flower_from: Vec<usize>,
    /// Allocated row length of `g`/`flower_from`.
    stride: usize,
    lab: Vec<i64>,
    matched: Vec<usize>,
    slack: Vec<usize>,
    st: Vec<usize>,
    pa: Vec<usize>,
    flower: Vec<Vec<usize>>,
    /// -1 unvisited, 0 even (S), 1 odd (T).
    s: Vec<i8>,
    vis: Vec<usize>,
    q: VecDeque<usize>,
    /// Integer-weight scratch for the pairing layer (`min_cost_pairing`).
    pub(crate) int_weights: Vec<Vec<i64>>,
}

impl Workspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows (never shrinks) every buffer to fit an `n`-vertex solve and
    /// resets the parts a fresh solve relies on. Pseudo-node rows of the
    /// flat matrices are *not* cleared here: `add_blossom` fully
    /// re-initializes a pseudo-node's row and column on creation, so stale
    /// content from a previous solve is unreachable.
    fn reset(&mut self, n: usize) {
        let cap = 2 * n + 2;
        if self.stride < cap {
            self.stride = cap;
            self.g = vec![Edge::default(); cap * cap];
            self.flower_from = vec![0; cap * cap];
        }
        let cap = self.stride;
        self.lab.clear();
        self.lab.resize(cap, 0);
        self.matched.clear();
        self.matched.resize(cap, 0);
        self.slack.clear();
        self.slack.resize(cap, 0);
        self.st.clear();
        self.st.extend(0..cap);
        self.pa.clear();
        self.pa.resize(cap, 0);
        self.s.clear();
        self.s.resize(cap, -1);
        self.vis.clear();
        self.vis.resize(cap, 0);
        if self.flower.len() < cap {
            self.flower.resize_with(cap, Vec::new);
        }
        for f in &mut self.flower {
            f.clear();
        }
        self.q.clear();
    }
}

thread_local! {
    /// Workspace behind the allocation-free convenience entry points.
    static SHARED: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Maximum-weight matching solver borrowing its state from a [`Workspace`].
///
/// Weights must be non-negative; zero-weight edges are treated as absent.
struct Solver<'a> {
    /// Real vertices.
    n: usize,
    /// Current node-space size (vertices + live blossoms).
    n_x: usize,
    /// Dual-adjustment epoch for `ws.vis` (reset per solve).
    vis_t: usize,
    ws: &'a mut Workspace,
}

impl<'a> Solver<'a> {
    fn new(ws: &'a mut Workspace, weights: &[Vec<i64>]) -> Self {
        let n = weights.len();
        ws.reset(n);
        let stride = ws.stride;
        for u in 1..=n {
            for v in 1..=n {
                ws.g[u * stride + v] = Edge {
                    u,
                    v,
                    w: if u == v { 0 } else { weights[u - 1][v - 1] },
                };
            }
        }
        Self {
            n,
            n_x: n,
            vis_t: 0,
            ws,
        }
    }

    #[inline]
    fn g(&self, u: usize, v: usize) -> Edge {
        self.ws.g[u * self.ws.stride + v]
    }

    #[inline]
    fn e_delta(&self, e: Edge) -> i64 {
        self.ws.lab[e.u] + self.ws.lab[e.v] - self.g(e.u, e.v).w * 2
    }

    #[inline]
    fn update_slack(&mut self, u: usize, x: usize) {
        if self.ws.slack[x] == 0
            || self.e_delta(self.g(u, x)) < self.e_delta(self.g(self.ws.slack[x], x))
        {
            self.ws.slack[x] = u;
        }
    }

    fn set_slack(&mut self, x: usize) {
        self.ws.slack[x] = 0;
        for u in 1..=self.n {
            if self.g(u, x).w > 0 && self.ws.st[u] != x && self.ws.s[self.ws.st[u]] == 0 {
                self.update_slack(u, x);
            }
        }
    }

    fn q_push(&mut self, x: usize) {
        if x <= self.n {
            self.ws.q.push_back(x);
        } else {
            for k in 0..self.ws.flower[x].len() {
                let y = self.ws.flower[x][k];
                self.q_push(y);
            }
        }
    }

    fn set_st(&mut self, x: usize, b: usize) {
        self.ws.st[x] = b;
        if x > self.n {
            for k in 0..self.ws.flower[x].len() {
                let y = self.ws.flower[x][k];
                self.set_st(y, b);
            }
        }
    }

    fn get_pr(&mut self, b: usize, xr: usize) -> usize {
        let pr = self.ws.flower[b].iter().position(|&x| x == xr).unwrap();
        if pr % 2 == 1 {
            self.ws.flower[b][1..].reverse();
            self.ws.flower[b].len() - pr
        } else {
            pr
        }
    }

    fn set_match(&mut self, u: usize, v: usize) {
        self.ws.matched[u] = self.g(u, v).v;
        if u <= self.n {
            return;
        }
        let e = self.g(u, v);
        let xr = self.ws.flower_from[u * self.ws.stride + e.u];
        let pr = self.get_pr(u, xr);
        for i in 0..pr {
            let (a, b) = (self.ws.flower[u][i], self.ws.flower[u][i ^ 1]);
            self.set_match(a, b);
        }
        self.set_match(xr, v);
        self.ws.flower[u].rotate_left(pr);
    }

    fn augment(&mut self, mut u: usize, mut v: usize) {
        loop {
            let xnv = self.ws.st[self.ws.matched[u]];
            self.set_match(u, v);
            if xnv == 0 {
                return;
            }
            let next = self.ws.st[self.ws.pa[xnv]];
            self.set_match(xnv, next);
            u = next;
            v = xnv;
        }
    }

    fn get_lca(&mut self, mut u: usize, mut v: usize) -> usize {
        self.vis_t += 1;
        let t = self.vis_t;
        while u != 0 || v != 0 {
            if u != 0 {
                if self.ws.vis[u] == t {
                    return u;
                }
                self.ws.vis[u] = t;
                u = self.ws.st[self.ws.matched[u]];
                if u != 0 {
                    u = self.ws.st[self.ws.pa[u]];
                }
            }
            std::mem::swap(&mut u, &mut v);
        }
        0
    }

    fn add_blossom(&mut self, u: usize, lca: usize, v: usize) {
        let stride = self.ws.stride;
        let mut b = self.n + 1;
        while b <= self.n_x && self.ws.st[b] != 0 {
            b += 1;
        }
        if b > self.n_x {
            self.n_x += 1;
        }
        self.ws.lab[b] = 0;
        self.ws.s[b] = 0;
        self.ws.matched[b] = self.ws.matched[lca];
        self.ws.flower[b].clear();
        self.ws.flower[b].push(lca);
        let mut x = u;
        while x != lca {
            self.ws.flower[b].push(x);
            let y = self.ws.st[self.ws.matched[x]];
            self.ws.flower[b].push(y);
            self.q_push(y);
            x = self.ws.st[self.ws.pa[y]];
        }
        self.ws.flower[b][1..].reverse();
        let mut x = v;
        while x != lca {
            self.ws.flower[b].push(x);
            let y = self.ws.st[self.ws.matched[x]];
            self.ws.flower[b].push(y);
            self.q_push(y);
            x = self.ws.st[self.ws.pa[y]];
        }
        self.set_st(b, b);
        for x in 1..=self.n_x {
            self.ws.g[b * stride + x].w = 0;
            self.ws.g[x * stride + b].w = 0;
        }
        for x in 1..=self.n {
            self.ws.flower_from[b * stride + x] = 0;
        }
        for k in 0..self.ws.flower[b].len() {
            let xs = self.ws.flower[b][k];
            for x in 1..=self.n_x {
                if self.ws.g[b * stride + x].w == 0
                    || self.e_delta(self.g(xs, x)) < self.e_delta(self.g(b, x))
                {
                    self.ws.g[b * stride + x] = self.ws.g[xs * stride + x];
                    self.ws.g[x * stride + b] = self.ws.g[x * stride + xs];
                }
            }
            for x in 1..=self.n {
                if self.ws.flower_from[xs * stride + x] != 0 {
                    self.ws.flower_from[b * stride + x] = xs;
                }
            }
        }
        self.set_slack(b);
    }

    fn expand_blossom(&mut self, b: usize) {
        for k in 0..self.ws.flower[b].len() {
            let i = self.ws.flower[b][k];
            self.set_st(i, i);
        }
        let xr = self.ws.flower_from[b * self.ws.stride + self.g(b, self.ws.pa[b]).u];
        let pr = self.get_pr(b, xr);
        let mut i = 0;
        while i < pr {
            let xs = self.ws.flower[b][i];
            let xns = self.ws.flower[b][i + 1];
            self.ws.pa[xs] = self.g(xns, xs).u;
            self.ws.s[xs] = 1;
            self.ws.s[xns] = 0;
            self.ws.slack[xs] = 0;
            self.set_slack(xns);
            self.q_push(xns);
            i += 2;
        }
        self.ws.s[xr] = 1;
        self.ws.pa[xr] = self.ws.pa[b];
        for i in pr + 1..self.ws.flower[b].len() {
            let xs = self.ws.flower[b][i];
            self.ws.s[xs] = -1;
            self.set_slack(xs);
        }
        self.ws.st[b] = 0;
        self.ws.flower[b].clear();
    }

    /// Processes a newly tight edge; returns true if an augmenting path was
    /// found (and applied).
    fn on_found_edge(&mut self, e: Edge) -> bool {
        let u = self.ws.st[e.u];
        let v = self.ws.st[e.v];
        if self.ws.s[v] == -1 {
            self.ws.pa[v] = e.u;
            self.ws.s[v] = 1;
            let nu = self.ws.st[self.ws.matched[v]];
            self.ws.slack[v] = 0;
            self.ws.slack[nu] = 0;
            self.ws.s[nu] = 0;
            self.q_push(nu);
        } else if self.ws.s[v] == 0 {
            let lca = self.get_lca(u, v);
            if lca == 0 {
                self.augment(u, v);
                self.augment(v, u);
                return true;
            }
            self.add_blossom(u, lca, v);
        }
        false
    }

    /// One phase: grows forests / adjusts duals until an augmenting path is
    /// found or the duals prove optimality for the current matching size.
    fn matching_phase(&mut self) -> bool {
        for x in 0..=self.n_x {
            self.ws.s[x] = -1;
            self.ws.slack[x] = 0;
        }
        self.ws.q.clear();
        for x in 1..=self.n_x {
            if self.ws.st[x] == x && self.ws.matched[x] == 0 {
                self.ws.pa[x] = 0;
                self.ws.s[x] = 0;
                self.q_push(x);
            }
        }
        if self.ws.q.is_empty() {
            return false;
        }
        loop {
            while let Some(u) = self.ws.q.pop_front() {
                if self.ws.s[self.ws.st[u]] == 1 {
                    continue;
                }
                for v in 1..=self.n {
                    if self.g(u, v).w > 0 && self.ws.st[u] != self.ws.st[v] {
                        if self.e_delta(self.g(u, v)) == 0 {
                            if self.on_found_edge(self.g(u, v)) {
                                return true;
                            }
                        } else {
                            let sv = self.ws.st[v];
                            self.update_slack(u, sv);
                        }
                    }
                }
            }
            // Dual adjustment.
            let mut d = i64::MAX / 4;
            for b in self.n + 1..=self.n_x {
                if self.ws.st[b] == b && self.ws.s[b] == 1 {
                    d = d.min(self.ws.lab[b] / 2);
                }
            }
            for x in 1..=self.n_x {
                if self.ws.st[x] == x && self.ws.slack[x] != 0 {
                    let delta = self.e_delta(self.g(self.ws.slack[x], x));
                    if self.ws.s[x] == -1 {
                        d = d.min(delta);
                    } else if self.ws.s[x] == 0 {
                        d = d.min(delta / 2);
                    }
                }
            }
            for u in 1..=self.n {
                match self.ws.s[self.ws.st[u]] {
                    0 => {
                        if self.ws.lab[u] <= d {
                            return false;
                        }
                        self.ws.lab[u] -= d;
                    }
                    1 => self.ws.lab[u] += d,
                    _ => {}
                }
            }
            for b in self.n + 1..=self.n_x {
                if self.ws.st[b] == b {
                    match self.ws.s[b] {
                        0 => self.ws.lab[b] += d * 2,
                        1 => self.ws.lab[b] -= d * 2,
                        _ => {}
                    }
                }
            }
            self.ws.q.clear();
            for x in 1..=self.n_x {
                if self.ws.st[x] == x
                    && self.ws.slack[x] != 0
                    && self.ws.st[self.ws.slack[x]] != x
                    && self.e_delta(self.g(self.ws.slack[x], x)) == 0
                    && self.on_found_edge(self.g(self.ws.slack[x], x))
                {
                    return true;
                }
            }
            for b in self.n + 1..=self.n_x {
                if self.ws.st[b] == b && self.ws.s[b] == 1 && self.ws.lab[b] == 0 {
                    self.expand_blossom(b);
                }
            }
        }
    }

    fn solve(&mut self) -> i64 {
        let stride = self.ws.stride;
        let w_max = (1..=self.n)
            .flat_map(|u| (1..=self.n).map(move |v| (u, v)))
            .map(|(u, v)| self.g(u, v).w)
            .max()
            .unwrap_or(0);
        for u in 1..=self.n {
            self.ws.lab[u] = w_max;
            for v in 1..=self.n {
                self.ws.flower_from[u * stride + v] = if u == v { u } else { 0 };
            }
        }
        while self.matching_phase() {}
        let mut total = 0;
        for u in 1..=self.n {
            if self.ws.matched[u] != 0 && self.ws.matched[u] < u {
                total += self.g(u, self.ws.matched[u]).w;
            }
        }
        total
    }
}

/// [`max_weight_matching`] with all scratch state in `ws`: the returned
/// mate vector is the only allocation.
pub(crate) fn max_weight_matching_in(
    ws: &mut Workspace,
    weights: &[Vec<i64>],
) -> (i64, Vec<Option<usize>>) {
    let n = weights.len();
    assert!(weights.iter().all(|row| row.len() == n), "square matrix");
    for (u, row) in weights.iter().enumerate() {
        for (v, &w) in row.iter().enumerate() {
            assert!(w >= 0, "weights must be non-negative");
            assert_eq!(w, weights[v][u], "weights must be symmetric");
        }
    }
    if n == 0 {
        return (0, Vec::new());
    }
    let mut solver = Solver::new(ws, weights);
    let total = solver.solve();
    let mate = ws.matched[1..=n]
        .iter()
        .map(|&m| if m == 0 { None } else { Some(m - 1) })
        .collect();
    (total, mate)
}

/// Runs `f` with the thread-local shared workspace, falling back to a
/// private one on reentrancy (can't happen today, but stay correct if a
/// future caller nests matching calls).
pub(crate) fn with_shared_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    SHARED.with(|shared| match shared.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        Err(_) => f(&mut Workspace::new()),
    })
}

/// Maximum-weight matching of the complete graph given by `weights`
/// (symmetric, non-negative; `weights[u][u]` ignored; zero weight = edge
/// absent). Returns `(total_weight, mate)` where `mate[u] == Some(v)` iff
/// `u` is matched to `v`. Solves in a shared thread-local workspace, so
/// repeated calls on one thread (the per-quantum scheduling path) are
/// allocation-free in the steady state.
pub fn max_weight_matching(weights: &[Vec<i64>]) -> (i64, Vec<Option<usize>>) {
    with_shared_workspace(|ws| max_weight_matching_in(ws, weights))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(rows: &[&[i64]]) -> Vec<Vec<i64>> {
        rows.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn two_vertices_match() {
        let (w, mate) = max_weight_matching(&sym(&[&[0, 5], &[5, 0]]));
        assert_eq!(w, 5);
        assert_eq!(mate, vec![Some(1), Some(0)]);
    }

    #[test]
    fn picks_heavier_pairing_of_four() {
        // Pairing (0,1)+(2,3) = 10+10=20 beats (0,2)+(1,3) = 1+1=2.
        let w = sym(&[
            &[0, 10, 1, 1],
            &[10, 0, 1, 1],
            &[1, 1, 0, 10],
            &[1, 1, 10, 0],
        ]);
        let (total, mate) = max_weight_matching(&w);
        assert_eq!(total, 20);
        assert_eq!(mate[0], Some(1));
        assert_eq!(mate[2], Some(3));
    }

    #[test]
    fn cross_pairing_when_better() {
        let w = sym(&[&[0, 1, 9, 1], &[1, 0, 1, 9], &[9, 1, 0, 1], &[1, 9, 1, 0]]);
        let (total, mate) = max_weight_matching(&w);
        assert_eq!(total, 18);
        assert_eq!(mate[0], Some(2));
        assert_eq!(mate[1], Some(3));
    }

    #[test]
    fn odd_cycle_forces_blossom() {
        // Triangle with a pendant: blossom contraction required for
        // optimality on general graphs.
        let w = sym(&[&[0, 6, 6, 0], &[6, 0, 6, 0], &[6, 6, 0, 5], &[0, 0, 5, 0]]);
        let (total, mate) = max_weight_matching(&w);
        // Best: (0,1)=6 and (2,3)=5 -> 11.
        assert_eq!(total, 11);
        assert_eq!(mate[0], Some(1));
        assert_eq!(mate[3], Some(2));
    }

    #[test]
    fn leaves_isolated_vertices_unmatched() {
        let w = sym(&[&[0, 0, 7], &[0, 0, 0], &[7, 0, 0]]);
        let (total, mate) = max_weight_matching(&w);
        assert_eq!(total, 7);
        assert_eq!(mate[1], None);
    }

    #[test]
    fn empty_graph() {
        let (total, mate) = max_weight_matching(&[]);
        assert_eq!(total, 0);
        assert!(mate.is_empty());
    }

    #[test]
    fn mate_is_involution() {
        let w = sym(&[
            &[0, 3, 8, 2, 5, 1],
            &[3, 0, 4, 7, 2, 6],
            &[8, 4, 0, 1, 3, 2],
            &[2, 7, 1, 0, 9, 4],
            &[5, 2, 3, 9, 0, 8],
            &[1, 6, 2, 4, 8, 0],
        ]);
        let (_, mate) = max_weight_matching(&w);
        for (u, &m) in mate.iter().enumerate() {
            if let Some(v) = m {
                assert_eq!(mate[v], Some(u), "mate must be symmetric");
            }
        }
    }

    #[test]
    fn workspace_reuse_matches_fresh_solves_across_sizes() {
        // One workspace solving interleaved sizes (grow, shrink, regrow)
        // must agree with fresh workspaces on every instance — the reset
        // contract that makes per-quantum reuse safe.
        let mut rng = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut shared = Workspace::new();
        for &n in &[6usize, 12, 4, 10, 12, 2, 8] {
            let mut w = vec![vec![0i64; n]; n];
            #[allow(clippy::needless_range_loop)] // (u, v) index form mirrors the matrix
            for u in 0..n {
                for v in u + 1..n {
                    let x = (next() % 50) as i64;
                    w[u][v] = x;
                    w[v][u] = x;
                }
            }
            let reused = max_weight_matching_in(&mut shared, &w);
            let fresh = max_weight_matching_in(&mut Workspace::new(), &w);
            assert_eq!(reused, fresh, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_weights_panic() {
        max_weight_matching(&sym(&[&[0, 1], &[2, 0]]));
    }
}
