//! Quadratic feature expansion.
//!
//! The paper expands the 10-dimensional configuration vector to 65
//! dimensions for the quadratic models (Section 4.3.1): the 10 linear
//! terms, 10 square terms, and 45 pairwise cross terms.

/// Expand a feature row to linear + square + cross terms.
///
/// Output layout: `[x_0..x_{d-1}, x_0^2..x_{d-1}^2, x_0 x_1, x_0 x_2, ...,
/// x_{d-2} x_{d-1}]` — `d + d + d(d-1)/2` features.
#[must_use]
pub fn quadratic_expand(row: &[f64]) -> Vec<f64> {
    let d = row.len();
    let mut out = Vec::with_capacity(2 * d + d * (d - 1) / 2);
    out.extend_from_slice(row);
    out.extend(row.iter().map(|x| x * x));
    for i in 0..d {
        for j in (i + 1)..d {
            out.push(row[i] * row[j]);
        }
    }
    out
}

/// Human-readable names for the expanded features, given base names.
/// Used to report Table 6's "most effective quadratic features".
#[must_use]
pub fn quadratic_feature_names(base: &[&str]) -> Vec<String> {
    let d = base.len();
    let mut out = Vec::with_capacity(2 * d + d * (d - 1) / 2);
    out.extend(base.iter().map(|s| (*s).to_string()));
    out.extend(base.iter().map(|s| format!("{s}^2")));
    for i in 0..d {
        for j in (i + 1)..d {
            out.push(format!("{} * {}", base[i], base[j]));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_dims_expand_to_65() {
        // The paper: "input vectors are expanded from 10 dimensions to 65
        // dimensions in the quadratic model".
        let row: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quadratic_expand(&row).len(), 65);
    }

    #[test]
    fn expansion_values() {
        let out = quadratic_expand(&[2.0, 3.0]);
        assert_eq!(out, vec![2.0, 3.0, 4.0, 9.0, 6.0]);
    }

    #[test]
    fn names_align_with_values() {
        let names = quadratic_feature_names(&["a", "b", "c"]);
        assert_eq!(names.len(), quadratic_expand(&[1.0, 2.0, 3.0]).len());
        assert_eq!(names[0], "a");
        assert_eq!(names[3], "a^2");
        assert_eq!(names[6], "a * b");
        assert_eq!(names[8], "b * c");
    }

    #[test]
    fn single_feature_has_no_cross_terms() {
        assert_eq!(quadratic_expand(&[5.0]), vec![5.0, 25.0]);
    }
}
