//! Shape and broadcasting utilities.

/// Compute the broadcast shape of two shapes under NumPy rules: align
/// trailing axes; each pair of dims must be equal or one of them 1.
///
/// # Panics
///
/// Panics if the shapes are not broadcast-compatible.
pub fn broadcast_shapes(a: &[usize], b: &[usize]) -> Vec<usize> {
    let nd = a.len().max(b.len());
    let mut out = vec![0usize; nd];
    for i in 0..nd {
        let da = if i < nd - a.len() {
            1
        } else {
            a[i - (nd - a.len())]
        };
        let db = if i < nd - b.len() {
            1
        } else {
            b[i - (nd - b.len())]
        };
        out[i] = match (da, db) {
            (x, y) if x == y => x,
            (1, y) => y,
            (x, 1) => x,
            _ => panic!("shapes {a:?} and {b:?} are not broadcast-compatible"),
        };
    }
    out
}

/// Row-major strides of a shape (in elements).
pub(crate) fn strides_of(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    strides
}

/// Strides for reading a tensor of `shape` as if broadcast to `out_shape`:
/// broadcast axes get stride 0. `shape` is right-aligned against
/// `out_shape`.
pub(crate) fn broadcast_strides(shape: &[usize], out_shape: &[usize]) -> Vec<usize> {
    let nd = out_shape.len();
    let own = strides_of(shape);
    let mut out = vec![0usize; nd];
    let offset = nd - shape.len();
    for i in 0..shape.len() {
        out[offset + i] = if shape[i] == 1 { 0 } else { own[i] };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_basic() {
        assert_eq!(broadcast_shapes(&[2, 3], &[2, 3]), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[2, 1], &[1, 3]), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[3], &[2, 3]), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[], &[4]), vec![4]);
        assert_eq!(broadcast_shapes(&[5, 1, 7], &[4, 7]), vec![5, 4, 7]);
    }

    #[test]
    #[should_panic(expected = "broadcast-compatible")]
    fn broadcast_incompatible() {
        broadcast_shapes(&[2, 3], &[4, 3]);
    }

    #[test]
    fn strides() {
        assert_eq!(strides_of(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides_of(&[5]), vec![1]);
        assert_eq!(strides_of(&[]), Vec::<usize>::new());
    }

    #[test]
    fn broadcast_stride_zeroing() {
        assert_eq!(broadcast_strides(&[2, 1], &[2, 3]), vec![1, 0]);
        assert_eq!(broadcast_strides(&[3], &[2, 3]), vec![0, 1]);
    }
}
