//! Exact keys for suspended runs: what the rest of a run can read.
//!
//! The machine is deterministic, so two [`ChoicePoint`]s of one program
//! that agree on everything their futures can read have the same
//! subtree of runs, bit for bit. A [`StateKey`] writes exactly that out
//! as a word string:
//!
//! * the continuation: every frame's code position and the values it
//!   holds, and every loss continuation it can still apply;
//! * of each environment, only the values at the free indices of the
//!   code that will run in it ([`crate::compile()`] records them once per
//!   node), so a variable no later code mentions does not split states;
//! * each handler activation's node, live environment and parameter
//!   stack. Activations and continuation records are `Rc`-shared, and a
//!   parameter pushed through one alias is seen through every other, so
//!   each is written once, at its first occurrence, and later
//!   occurrences refer back to it by number: equal keys mean equal
//!   sharing as well as equal contents;
//! * the loss-scope depth, the decisions taken, the suspending site, and
//!   the ambient partial's bits. The partial is keyed absolutely: float
//!   addition does not associate, so two paths whose partials differ
//!   can still meet the same relative future and end on different bits.
//!
//! A run's step count is not keyed: running out of fuel is an error a
//! search does not survive, not a result it compares. A state holding a
//! handler's `l` or `k` gets no key ([`ChoicePoint::state_key`] returns
//! `None`): those close over a captured continuation together with the
//! activation that re-runs it, and are left to the prefix keys.
//!
//! The encoding is prefix-free (every variable-length part carries its
//! length, every alternative its tag), so equal words mean equal states
//! and keys are compared exactly, never by hash alone.

use super::{Activation, ChoicePoint, Clos, Env, Frame, GVal, Kont, MVal};
use crate::compile::{CodeId, CompiledProgram};
use crate::loss::LossVal;
use std::rc::Rc;

/// An exact, owned key of a suspended run's state (see the module
/// docs). `Send`, so a shared table can hold it; two keys are equal only
/// if the states they describe have the same future.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct StateKey(Box<[u64]>);

/// Tags: one per alternative of every part written below.
mod tag {
    pub const SEEN: u64 = 0;
    pub const DONE: u64 = 1;
    pub const BIND: u64 = 2;
    pub const SEQ: u64 = 3;
    pub const RESET: u64 = 4;
    pub const THEN: u64 = 5;
    pub const FOLD: u64 = 6;
    pub const REENTER: u64 = 7;
    pub const ITER: u64 = 8;
    pub const G_ZERO: u64 = 9;
    pub const G_FUN: u64 = 10;
    pub const G_FRAME: u64 = 11;
    pub const G_RET: u64 = 12;
    pub const ACT: u64 = 13;
    pub const LOSS: u64 = 14;
    pub const CHAR: u64 = 15;
    pub const STR: u64 = 16;
    pub const NAT: u64 = 17;
    pub const TUPLE: u64 = 18;
    pub const SUM: u64 = 19;
    pub const LIST: u64 = 20;
    pub const CLOS: u64 = 21;
    pub const UNBOUND: u64 = 22;
    pub const NONE: u64 = 23;
}

impl ChoicePoint {
    /// This point's [`StateKey`], or `None` when its state holds a
    /// handler's choice or resume continuation. Two points of one program
    /// with equal keys have bit-identical subtrees: the same leaves, in
    /// the same order, with the same losses and decision counts.
    pub fn state_key(&self) -> Option<StateKey> {
        let m = &self.state;
        let mut w = Writer {
            program: &m.run.program,
            words: Vec::with_capacity(64),
            konts: Vec::new(),
            acts: Vec::new(),
        };
        let site = self.site.map_or(u64::MAX, |CodeId(id)| u64::from(id));
        w.words.extend([u64::from(m.decisions), u64::from(m.capture_depth), site]);
        w.loss(&m.partial);
        w.kont(&self.cont)?;
        Some(StateKey(w.words.into()))
    }
}

/// The key under construction, with the shared records written so far.
struct Writer<'p> {
    program: &'p CompiledProgram,
    words: Vec<u64>,
    konts: Vec<*const Frame>,
    acts: Vec<*const Activation>,
}

/// Writes a back reference if `ptr` was written before; otherwise
/// numbers it and returns `false`, so the caller writes it out.
fn seen<T>(words: &mut Vec<u64>, table: &mut Vec<*const T>, ptr: *const T) -> bool {
    if let Some(n) = table.iter().position(|p| *p == ptr) {
        words.extend([tag::SEEN, n as u64]);
        return true;
    }
    table.push(ptr);
    false
}

impl Writer<'_> {
    fn kont(&mut self, k: &Kont) -> Option<()> {
        if seen(&mut self.words, &mut self.konts, Rc::as_ptr(&k.0)) {
            return Some(());
        }
        match &*k.0 {
            Frame::Done => self.words.push(tag::DONE),
            Frame::Bind { inner, rest } => {
                self.words.push(tag::BIND);
                self.kont(inner)?;
                self.kont(rest)?;
            }
            Frame::Seq(st) => {
                self.words.extend([tag::SEQ, u64::from(st.node.0), st.idx as u64]);
                self.vals(&st.done)?;
                self.env(&st.env, st.node, 0)?;
                self.gval(&st.g)?;
            }
            Frame::Reset(inner) => {
                self.words.push(tag::RESET);
                self.kont(inner)?;
            }
            Frame::Then { inner, cap, lam } => {
                self.words.push(tag::THEN);
                self.kont(inner)?;
                self.losses(cap);
                self.gval(lam)?;
            }
            Frame::Fold { inner, cap } => {
                self.words.push(tag::FOLD);
                self.kont(inner)?;
                self.losses(cap);
            }
            Frame::Reenter { act, p, g, inner } => {
                self.words.push(tag::REENTER);
                self.act(act)?;
                self.val(p)?;
                self.gval(g)?;
                self.kont(inner)?;
            }
            Frame::Iter { cv, d, items, g } => {
                self.words.extend([tag::ITER, *d as u64]);
                self.val(cv)?;
                match items {
                    Some(items) => self.vals(items)?,
                    None => self.words.push(tag::NONE),
                }
                self.gval(g)?;
            }
        }
        Some(())
    }

    fn gval(&mut self, g: &GVal) -> Option<()> {
        match g {
            GVal::Zero => self.words.push(tag::G_ZERO),
            GVal::Fun(clos) => {
                self.words.push(tag::G_FUN);
                self.clos(clos)?;
            }
            GVal::Frame(k) => {
                self.words.push(tag::G_FRAME);
                self.kont(k)?;
            }
            GVal::Ret { act, outer } => {
                self.words.push(tag::G_RET);
                self.act(act)?;
                self.gval(outer)?;
            }
        }
        Some(())
    }

    fn act(&mut self, act: &Rc<Activation>) -> Option<()> {
        if seen(&mut self.words, &mut self.acts, Rc::as_ptr(act)) {
            return Some(());
        }
        self.words.extend([tag::ACT, u64::from(act.handle.0)]);
        self.env(&act.env, act.handle, 0)?;
        self.vals(&act.params.borrow())
    }

    /// A closure: its body and the captured values the body reads (its
    /// index 0 is the argument, not a capture).
    fn clos(&mut self, c: &Clos) -> Option<()> {
        self.words.push(u64::from(c.body.0));
        self.env(&c.env, c.body, 1)
    }

    /// The values of `env` at `node`'s free indices, for a node that runs
    /// under `binds` more binders than `env` holds.
    fn env(&mut self, env: &Env, node: CodeId, binds: u32) -> Option<()> {
        let program = self.program;
        let mut cur = env;
        let mut at = 0;
        for &i in program.free.of(node) {
            let Some(i) = i.checked_sub(binds) else { continue };
            while at < i {
                match &cur.0 {
                    Some(n) => cur = &n.next,
                    None => break,
                }
                at += 1;
            }
            match &cur.0 {
                Some(n) if at == i => self.val(&n.val)?,
                _ => self.words.push(tag::UNBOUND),
            }
        }
        Some(())
    }

    fn vals(&mut self, vs: &[MVal]) -> Option<()> {
        self.words.push(vs.len() as u64);
        vs.iter().try_for_each(|v| self.val(v))
    }

    fn losses(&mut self, ls: &[LossVal]) {
        self.words.push(ls.len() as u64);
        ls.iter().for_each(|l| self.loss(l));
    }

    fn loss(&mut self, l: &LossVal) {
        let xs = l.components();
        self.words.push(xs.len() as u64);
        self.words.extend(xs.iter().map(|x| x.to_bits()));
    }

    fn val(&mut self, v: &MVal) -> Option<()> {
        match v {
            MVal::Loss(l) => {
                self.words.push(tag::LOSS);
                self.loss(l);
            }
            MVal::Char(c) => self.words.extend([tag::CHAR, u64::from(*c)]),
            MVal::Str(s) => {
                self.words.extend([tag::STR, s.len() as u64]);
                self.words.extend(s.as_bytes().chunks(8).map(|c| {
                    let mut word = [0; 8];
                    word[..c.len()].copy_from_slice(c);
                    u64::from_le_bytes(word)
                }));
            }
            MVal::Nat(n) => self.words.extend([tag::NAT, *n]),
            MVal::Tuple(vs) => {
                self.words.push(tag::TUPLE);
                self.vals(vs)?;
            }
            MVal::Sum { right, val } => {
                self.words.extend([tag::SUM, u64::from(*right)]);
                match val {
                    Some(v) => self.val(v)?,
                    None => self.words.push(tag::NONE),
                }
            }
            MVal::List(vs) => {
                self.words.push(tag::LIST);
                self.vals(vs)?;
            }
            MVal::Clos(c) => {
                self.words.push(tag::CLOS);
                self.clos(c)?;
            }
            MVal::Probe(_) | MVal::Resume(_) => return None,
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::machine::{explore, run_with, Explored, RunConfig, TreeChoices};
    use crate::testgen::{decide_chain_holding_k, deep_decide_chain, GenProgram};

    fn compiled(p: &GenProgram) -> CompiledProgram {
        compile(&p.expr).unwrap()
    }

    fn forced(p: &CompiledProgram, bits: u64, len: u32, depth: u32) -> RunConfig {
        let ops = p.op_mask(["decide"]);
        let choices = TreeChoices { ops, prefix_bits: bits, prefix_len: len, max_decisions: depth };
        RunConfig { forced: Some(choices), ..RunConfig::default() }
    }

    /// The point after the `len` decisions of `bits`.
    fn point(p: &CompiledProgram, bits: u64, len: u32, depth: u32) -> ChoicePoint {
        match explore(p, forced(p, bits, len, depth)).unwrap() {
            Explored::Choice(c) => c,
            Explored::Done(_) => panic!("{bits:#b}/{len} is interior"),
        }
    }

    /// The loss bits of every completion of `bits`, in index order.
    fn subtree(p: &CompiledProgram, bits: u64, len: u32, depth: u32) -> Vec<u64> {
        let width = depth - len;
        (0..1_u64 << width)
            .map(|s| {
                let cfg = forced(p, (bits << width) | s, depth, depth);
                run_with(p, cfg).unwrap().loss.as_scalar().to_bits()
            })
            .collect()
    }

    #[test]
    fn transposed_prefixes_share_a_key_and_a_subtree() {
        // Step 0 costs 0/2 and step 1 costs 2/0 for true/false: `tt` and
        // `ff` both reach partial 2, with different (dead) `b0`, `b1`.
        let depth = 5;
        let p = compiled(&deep_decide_chain(depth));
        let key = |bits, len| point(&p, bits, len, depth).state_key().expect("keyable");
        assert_eq!(key(0b00, 2), key(0b11, 2));
        assert_ne!(key(0b00, 2), key(0b01, 2), "partials 2 and 0 differ");
        assert_ne!(key(0, 1), key(0, 2), "depths differ");
        // Equal keys, equal futures: every pair of depth-3 points.
        for a in 0..8 {
            for b in 0..8 {
                if key(a, 3) == key(b, 3) {
                    assert_eq!(subtree(&p, a, 3, depth), subtree(&p, b, 3, depth), "{a} {b}");
                }
            }
        }
    }

    #[test]
    fn a_live_resume_continuation_leaves_a_point_unkeyed() {
        let depth = 3;
        let p = compiled(&decide_chain_holding_k(depth));
        for len in 0..depth {
            for bits in 0..1 << len {
                assert!(point(&p, bits, len, depth).state_key().is_none(), "{bits:#b}/{len}");
            }
        }
    }
}
