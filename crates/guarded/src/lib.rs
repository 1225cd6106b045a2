//! # omq-guarded
//!
//! The guarded-tgd substrate of §5: tree decompositions and **C-trees**
//! (Def. 2/9), their encoding as `Γ_{S,l}`-labeled trees with the
//! consistency conditions of Lemma 41, the consistency automaton of
//! Lemma 23, and a guarded evaluation engine.
//!
//! Under guarded tgds the chase has bounded treewidth but need not
//! terminate, so evaluation works with a depth-budgeted chase that stops
//! once the set of isomorphism types of derived atoms has not grown for a
//! window of `|q| + 1` consecutive depth levels. That window is a heuristic
//! (a match can first appear deeper), so only a terminated chase is exact:
//! the engine reports the guarantee the returned answer carries as an
//! `omq_chase::Guarantee`, naming the cap that stopped it.

pub mod compile;
pub mod ctree;
pub mod encoding;
pub mod guarded_eval;
pub mod tree_decomposition;
pub mod unravel;

pub use compile::{compile_encoding, EncodingArtifact, EncodingConfig};
pub use ctree::CTree;
pub use encoding::{
    consistency_automaton_downward, decode, encode, is_consistent, Name, NodeLabel,
};
pub use guarded_eval::{guarded_certain_answers, GuardedAnswers, GuardedConfig};
pub use tree_decomposition::TreeDecomposition;
pub use unravel::{unravel, Unraveling};
