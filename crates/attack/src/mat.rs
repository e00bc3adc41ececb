//! A dense row-major matrix: one contiguous `Vec<f64>` plus dimensions.
//!
//! The learning plane stores every sample set and weight block in a
//! `Mat` so the hot SGD/PCA loops walk a single flat allocation instead
//! of chasing one heap pointer per row (`Vec<Vec<f64>>`). Rows are
//! exposed as slices (`row`, `iter`, indexing), which keeps the
//! per-sample arithmetic — and therefore the floating-point accumulation
//! order — identical to the nested layout it replaces.

use aegis_par::{ColumnFrame, ColumnSchema, Columnar, FrameError, FrameReader};
use serde::{Deserialize, Serialize};

/// A row-major `rows × cols` matrix backed by one contiguous buffer.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Mat {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Mat {
    /// An all-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// An empty matrix with `cols` fixed and room reserved for `rows`.
    pub fn with_capacity(rows: usize, cols: usize) -> Self {
        Mat {
            data: Vec::with_capacity(rows * cols),
            rows: 0,
            cols,
        }
    }

    /// Copies nested rows into a flat matrix.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let cols = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|r| r.len() == cols), "ragged rows");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            data.extend_from_slice(row);
        }
        Mat {
            data,
            rows: rows.len(),
            cols,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of range ({} rows)", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row {i} out of range ({} rows)", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Appends one row. The first push fixes the column count.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the established column count.
    pub fn push_row(&mut self, row: &[f64]) {
        if self.rows == 0 && self.data.is_empty() {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "row length mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// The whole buffer, row-major.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Zeroes every element in place, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Iterates over rows as slices.
    pub fn iter(&self) -> RowIter<'_> {
        RowIter { mat: self, next: 0 }
    }

    /// Iterates over rows as mutable slices.
    pub fn iter_mut(&mut self) -> RowIterMut<'_> {
        RowIterMut {
            rest: &mut self.data,
            cols: self.cols,
            remaining: self.rows,
        }
    }

    /// Copies the first `n` rows into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n > rows`.
    pub fn head(&self, n: usize) -> Mat {
        assert!(n <= self.rows, "head({n}) of a {}-row matrix", self.rows);
        Mat {
            data: self.data[..n * self.cols].to_vec(),
            rows: n,
            cols: self.cols,
        }
    }
}

/// The columnar encoding is the in-memory layout itself: one `u64`
/// dims column `[rows, cols]`, then the row-major buffer as a single
/// `f64` page — a warm load copies the page straight into `data`.
impl Columnar for Mat {
    fn schema() -> ColumnSchema {
        ColumnSchema::new("attack/mat", 1)
    }

    fn encode_columns(&self, frame: &mut ColumnFrame) {
        frame.push_u64(vec![self.rows as u64, self.cols as u64]);
        frame.push_f64(self.data.clone());
    }

    fn decode_columns(reader: &mut FrameReader) -> Result<Self, FrameError> {
        let dims = reader.u64s()?;
        let [rows, cols] = dims[..] else {
            return Err(FrameError::new("mat dims column malformed"));
        };
        let rows = aegis_par::store::usize_from_u64(rows, "mat rows")?;
        let cols = aegis_par::store::usize_from_u64(cols, "mat cols")?;
        let data = reader.f64s()?;
        if data.len()
            != rows
                .checked_mul(cols)
                .ok_or_else(|| FrameError::new("mat dims overflow"))?
        {
            return Err(FrameError::new("mat buffer/dims mismatch"));
        }
        Ok(Mat { data, rows, cols })
    }
}

impl std::ops::Index<usize> for Mat {
    type Output = [f64];

    fn index(&self, i: usize) -> &[f64] {
        self.row(i)
    }
}

impl std::ops::IndexMut<usize> for Mat {
    fn index_mut(&mut self, i: usize) -> &mut [f64] {
        self.row_mut(i)
    }
}

/// Borrowing row iterator (`&Mat` yields `&[f64]`).
#[derive(Debug, Clone)]
pub struct RowIter<'a> {
    mat: &'a Mat,
    next: usize,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a [f64];

    fn next(&mut self) -> Option<&'a [f64]> {
        if self.next >= self.mat.rows {
            return None;
        }
        let row = self.mat.row(self.next);
        self.next += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.mat.rows - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

/// Mutable row iterator (`&mut Mat` yields `&mut [f64]`).
#[derive(Debug)]
pub struct RowIterMut<'a> {
    rest: &'a mut [f64],
    cols: usize,
    remaining: usize,
}

impl<'a> Iterator for RowIterMut<'a> {
    type Item = &'a mut [f64];

    fn next(&mut self) -> Option<&'a mut [f64]> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let rest = std::mem::take(&mut self.rest);
        let (row, rest) = rest.split_at_mut(self.cols);
        self.rest = rest;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for RowIterMut<'_> {}

impl<'a> IntoIterator for &'a Mat {
    type Item = &'a [f64];
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &'a mut Mat {
    type Item = &'a mut [f64];
    type IntoIter = RowIterMut<'a>;

    fn into_iter(self) -> RowIterMut<'a> {
        self.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_roundtrips_through_row_access() {
        let m = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(&m[2], &[5.0, 6.0]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn push_row_fixes_columns_on_first_push() {
        let mut m = Mat::default();
        m.push_row(&[1.0, 2.0, 3.0]);
        m.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn push_row_rejects_ragged_rows() {
        let mut m = Mat::default();
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged_input() {
        Mat::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn iterators_visit_rows_in_order() {
        let mut m = Mat::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let seen: Vec<f64> = m.iter().map(|r| r[0]).collect();
        assert_eq!(seen, vec![1.0, 2.0, 3.0]);
        for row in &mut m {
            row[0] *= 10.0;
        }
        assert_eq!(m.as_slice(), &[10.0, 20.0, 30.0]);
    }

    #[test]
    fn head_copies_a_prefix() {
        let m = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let h = m.head(2);
        assert_eq!(h.rows(), 2);
        assert_eq!(h.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn empty_mat_iterates_nothing() {
        let m = Mat::default();
        assert!(m.is_empty());
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn columnar_roundtrip_is_bit_exact() {
        let m = Mat::from_rows(&[vec![1.5, -0.0], vec![f64::NAN, 2.0f64.powi(-40)]]);
        let back = Mat::from_frame(m.to_frame()).unwrap();
        assert_eq!(back.rows(), 2);
        assert_eq!(back.cols(), 2);
        assert_eq!(
            back.as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        // A frame whose buffer disagrees with its dims must not decode.
        let mut frame = aegis_par::ColumnFrame::new();
        frame.push_u64(vec![2, 2]);
        frame.push_f64(vec![1.0; 3]);
        assert!(Mat::from_frame(frame).is_err());
    }

    #[test]
    fn scratch_reuse_via_fill_zero() {
        let mut g = Mat::zeros(2, 2);
        g[0][0] = 5.0;
        g.fill_zero();
        assert_eq!(g.as_slice(), &[0.0; 4]);
    }
}
