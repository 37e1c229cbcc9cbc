//! Property test of the layered [`Interner`]: random sequences of
//! `intern`, `get`, `freeze` and `clone` are checked against a flat
//! `Vec<String>` + `HashMap` model. Ids, `resolve`, `get`, `len` and `iter`
//! must agree with the model after every step, and interning into a clone
//! must never change the interner it was cloned from.

use std::collections::HashMap;

use proptest::prelude::*;
use rbqa_common::{ConstId, Interner};

/// The flat reference: ids are positions in `names`.
#[derive(Clone, Default)]
struct Model {
    names: Vec<String>,
    ids: HashMap<String, usize>,
}

impl Model {
    fn intern(&mut self, name: &str) -> usize {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), self.names.len() - 1);
        self.names.len() - 1
    }
}

fn assert_agrees(interner: &Interner, model: &Model) {
    assert_eq!(interner.len(), model.names.len());
    assert_eq!(interner.is_empty(), model.names.is_empty());
    let listed: Vec<(usize, &str)> = interner.iter().map(|(id, s)| (id.index(), s)).collect();
    let expected: Vec<(usize, &str)> = model
        .names
        .iter()
        .enumerate()
        .map(|(i, s)| (i, s.as_str()))
        .collect();
    assert_eq!(listed, expected);
    for (i, name) in model.names.iter().enumerate() {
        assert_eq!(interner.resolve(ConstId::from_index(i)), name);
        assert_eq!(interner.get(name), Some(ConstId::from_index(i)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn layered_interner_matches_a_flat_model(
        ops in prop::collection::vec((0u8..4, 0u8..24), 0..80),
    ) {
        let mut current = Interner::new();
        let mut model = Model::default();
        // Interners left behind by `clone` steps, with the model they must
        // still match: the run continues on the clone.
        let mut originals: Vec<(Interner, Model)> = Vec::new();
        for &(op, arg) in &ops {
            let name = format!("c{arg}");
            match op {
                0 => {
                    let id = current.intern(&name);
                    prop_assert_eq!(id.index(), model.intern(&name));
                }
                1 => {
                    let expected = model.ids.get(&name).map(|&i| ConstId::from_index(i));
                    prop_assert_eq!(current.get(&name), expected);
                }
                2 => current.freeze(),
                _ => {
                    let copy = current.clone();
                    originals.push((std::mem::replace(&mut current, copy), model.clone()));
                }
            }
            assert_agrees(&current, &model);
            for (original, original_model) in &originals {
                assert_agrees(original, original_model);
            }
        }
    }
}

#[test]
fn frozen_strings_are_shared_by_clones() {
    let mut base = Interner::new();
    let a = base.intern("alice");
    base.freeze();
    let mut overlay = base.clone();
    let b = overlay.intern("bob");
    assert_eq!(b.index(), 1);
    assert!(std::ptr::eq(base.resolve(a), overlay.resolve(a)));
    assert!(base.get("bob").is_none());
    // Freezing the overlay copies the still-shared base once and keeps ids.
    overlay.freeze();
    assert_eq!(overlay.get("bob"), Some(b));
    assert_eq!(overlay.resolve(a), "alice");
    assert_eq!(base.len(), 1);
}
