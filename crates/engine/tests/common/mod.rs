//! A decision tree over a leaf-loss closure, shared by the engine's
//! integration suites: they reach the worker pool through the tree walk,
//! the one search that runs on more than one worker.

use selc_engine::{TreeEval, TreeStep};

/// A full binary tree of `depth` decisions whose leaf `i` scores
/// `loss(i)`. With `hints`, every interior node reports the minimum of
/// its leaves, a true lower bound, so pruning engines skip dominated
/// subtrees. `min_leaf` caps the walk's split depth: `1` gives a
/// parallel walk exactly two subtree roots.
pub struct LeafTree<F> {
    pub depth: u32,
    pub loss: F,
    pub hints: bool,
    pub min_leaf: u32,
}

impl<F: Fn(usize) -> f64 + Send + Sync> LeafTree<F> {
    /// The tree over `loss` on `0..2^depth`: no hints, split uncapped.
    pub fn new(depth: u32, loss: F) -> LeafTree<F> {
        LeafTree { depth, loss, hints: false, min_leaf: depth }
    }

    fn step(&self, path: u64, len: u32) -> TreeStep<(), f64> {
        if len == self.depth {
            return TreeStep::Leaf { loss: (self.loss)(path as usize), used: len };
        }
        let hint = self.hints.then(|| {
            let lo = (path << (self.depth - len)) as usize;
            (lo..lo + (1 << (self.depth - len))).map(&self.loss).fold(f64::INFINITY, f64::min)
        });
        TreeStep::Node { node: (), hint }
    }
}

impl<F: Fn(usize) -> f64 + Send + Sync> TreeEval<f64> for LeafTree<F> {
    type Node = ();

    fn depth(&self) -> u32 {
        self.depth
    }

    fn enter(&self, prefix: u64, len: u32) -> TreeStep<(), f64> {
        self.step(prefix, len)
    }

    fn child(&self, _node: &(), _decision: bool, path: u64, len: u32) -> TreeStep<(), f64> {
        self.step(path, len)
    }

    fn min_leaf_depth(&self) -> u32 {
        self.min_leaf
    }
}
