//! Correctness gates. They run after the timed region and count toward
//! no metric; any mismatch marks the run incorrect.

/// Compares observed result fingerprints, `(input index, fingerprint)`,
/// against the reference fingerprint of each input. Returns one line per
/// mismatch (the first few in full, then a count).
pub fn compare(what: &str, observed: &[(usize, u64)], reference: &[u64]) -> Vec<String> {
    const SHOWN: usize = 8;
    let mut out = Vec::new();
    let mut hidden = 0usize;
    for &(input, fp) in observed {
        let expected = reference.get(input).copied();
        if expected == Some(fp) {
            continue;
        }
        if out.len() < SHOWN {
            out.push(match expected {
                Some(e) => format!("{what} {input}: fingerprint {fp:016x}, reference {e:016x}"),
                None => format!("{what} {input}: no reference"),
            });
        } else {
            hidden += 1;
        }
    }
    if hidden > 0 {
        out.push(format!("{what}: {hidden} more mismatches"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_every_mismatch() {
        assert!(compare("image", &[(0, 1), (1, 2), (0, 1)], &[1, 2]).is_empty());
        assert_eq!(compare("image", &[(0, 1), (1, 3)], &[1, 2]).len(), 1);
        assert_eq!(compare("image", &[(2, 1)], &[1, 2]).len(), 1);
        let many: Vec<(usize, u64)> = (0..20).map(|i| (0, i + 5)).collect();
        assert_eq!(compare("image", &many, &[1]).len(), 9);
    }
}
