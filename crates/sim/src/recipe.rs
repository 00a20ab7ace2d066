//! Random series-parallel computations for property tests, shared by the
//! engine's in-crate tests and `tests/properties.rs` (which includes this
//! file by path). Each includer brings `Dag` and `DagBuilder` into scope.

use super::{Dag, DagBuilder};
use nws_topology::Place;
use proptest::prelude::*;

/// A recipe for a random series-parallel computation.
#[derive(Debug, Clone)]
pub struct Recipe {
    /// Per internal node: number of children (1..=3) at each level.
    fanouts: Vec<u8>,
    leaf_cycles: u64,
    places: Vec<u8>,
}

pub fn recipe() -> impl Strategy<Value = Recipe> {
    (
        proptest::collection::vec(1u8..=3, 1..5),
        100u64..5_000,
        proptest::collection::vec(0u8..5, 1..8),
    )
        .prop_map(|(fanouts, leaf_cycles, places)| Recipe { fanouts, leaf_cycles, places })
}

pub fn build(recipe: &Recipe) -> Dag {
    fn rec(b: &mut DagBuilder, recipe: &Recipe, depth: usize, idx: &mut usize) {
        let place = match recipe.places[*idx % recipe.places.len()] {
            4 => Place::ANY,
            p => Place(p as usize),
        };
        *idx += 1;
        b.open(place);
        if depth >= recipe.fanouts.len() {
            b.compute(recipe.leaf_cycles);
        } else {
            b.compute(recipe.leaf_cycles / 4);
            for _ in 0..recipe.fanouts[depth] {
                rec(b, recipe, depth + 1, idx);
            }
            b.sync().compute(recipe.leaf_cycles / 4);
        }
        b.close();
    }
    let mut b = DagBuilder::new();
    rec(&mut b, recipe, 0, &mut 0);
    b.build()
}
