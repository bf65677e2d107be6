//! Seeded input generation. The seed is the benchmark's argument; the
//! program only ever receives the images generated here.

use rock_core::suite::{self, ClassSpec, DeltaEdit, DeltaSpec};
use rock_minicpp::{CompileOptions, Compiled};

/// SplitMix64: a tiny deterministic generator for input choices.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a per-use `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn pick(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.pick(i + 1));
        }
    }
}

/// The shape of `suite::stress_program(families, depth, fanout)` with
/// every class's method bodies seeded from `seed`, compiled under the
/// stress program's optimized options (inlined parent constructors,
/// rodata noise). `(1, 4, 7)` is one 400-vtable family.
pub fn stress_image(seed: u64, families: usize, depth: usize, fanout: usize) -> Compiled {
    let mut rng = Rng::new(seed, 0x5C_A1E);
    let mut specs: Vec<ClassSpec> = Vec::new();
    for _ in 0..families {
        let root = specs.len();
        specs.push(ClassSpec::node(None, 2, root));
        let mut level = vec![root];
        for _ in 1..depth {
            let mut next = Vec::new();
            for &p in &level {
                for _ in 0..fanout {
                    let idx = specs.len();
                    specs.push(ClassSpec::node(Some(p), 1 + idx % 2, idx));
                    next.push(idx);
                }
            }
            level = next;
        }
    }
    // Distinct odd seeds: equal body seeds would invite COMDAT folding.
    let mut seen = std::collections::BTreeSet::new();
    for s in &mut specs {
        let mut body = rng.next_u64() | 1;
        while !seen.insert(body) {
            body = rng.next_u64() | 1;
        }
        s.body_seed = body;
    }
    let program = suite::generate_program("skype", &specs);
    let options =
        CompileOptions { inline_parent_ctors: true, rodata_noise: 64, ..CompileOptions::default() };
    rock_minicpp::compile(&program, &options).expect("generated stress programs compile")
}

/// The cumulative edit sequence over the five edit kinds of the
/// incremental suite: a body edit, an added or removed method, a slot
/// reorder, a new leaf class, and a flipped call target. Every block of
/// five edits holds each kind once, and edits visit the families in turn.
///
/// The shape (which kind hits which family, class and method) is the same
/// under every seed: reconstruction accuracy moves with the shape and not
/// with method bodies, so a fixed shape keeps `app_missing` and
/// `app_added` comparable between seeds (seeded shapes spread them by
/// 15-27% over ten seeds). The seed reaches every edit through `base`,
/// whose tags seed every method body, including those the edits write.
/// Returns the spec after each edit.
pub fn edit_sequence(base: &DeltaSpec, edits: usize) -> Vec<DeltaSpec> {
    let mut rng = Rng::new(0, 0xED17);
    let mut spec = base.clone();
    let mut kinds = Vec::new();
    let first_family = rng.pick(64);
    (0..edits)
        .map(|i| {
            if kinds.is_empty() {
                kinds = (0..5).collect();
                rng.shuffle(&mut kinds);
            }
            let family = first_family + i;
            let class = rng.pick(64);
            // Method additions and removals alternate between blocks.
            let add = (i / 5) % 2 == 0;
            let edit = match kinds.pop().expect("refilled above") {
                0 => DeltaEdit::EditBody { family, class, method: rng.pick(8) },
                1 if add => DeltaEdit::AddMethod { family, class },
                1 => DeltaEdit::RemoveMethod { family, class },
                2 => DeltaEdit::ReorderSlots { family, class },
                3 => DeltaEdit::AddClass { family },
                _ => DeltaEdit::FlipCallTarget { family, class },
            };
            suite::apply_delta(&mut spec, edit);
            spec.clone()
        })
        .collect()
}

/// Compiles one delta spec.
pub fn delta_image(spec: &DeltaSpec) -> Compiled {
    suite::delta_program(spec).compile().expect("delta programs compile")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = rock_binary::image_to_bytes(&stress_image(5, 1, 2, 3).stripped_image());
        let b = rock_binary::image_to_bytes(&stress_image(5, 1, 2, 3).stripped_image());
        let c = rock_binary::image_to_bytes(&stress_image(6, 1, 2, 3).stripped_image());
        assert_eq!(a, b);
        assert_ne!(a, c);
        let base = suite::delta_spec(2, 4, 1);
        assert_eq!(edit_sequence(&base, 6), edit_sequence(&base, 6));
        assert_ne!(edit_sequence(&base, 6), edit_sequence(&suite::delta_spec(2, 4, 2), 6));
    }
}
