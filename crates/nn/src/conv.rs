//! 2-D convolution via im2col + GeMM — how convolutional workloads map
//! onto a matrix-multiply accelerator (the "parallel convolutional
//! processing" of Feldmann et al. 2021, which the paper builds on: the
//! photonic tensor core computes convolutions as patch-matrix products).
//!
//! `im2col` unrolls each receptive field into a column; the kernel bank
//! becomes a `K x k*k` matrix; one GeMM computes all `K` feature maps at
//! once — exactly the operation the photonic MVM/GeMM core accelerates.

use neuropulsim_linalg::RMatrix;

/// A single-channel 2-D image (row-major).
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    /// Height in pixels.
    pub height: usize,
    /// Width in pixels.
    pub width: usize,
    /// Row-major pixel values.
    pub pixels: Vec<f64>,
}

impl Image {
    /// Creates an image from row-major pixels.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len() != height * width`.
    pub fn new(height: usize, width: usize, pixels: Vec<f64>) -> Self {
        assert_eq!(pixels.len(), height * width, "pixel count mismatch");
        Image {
            height,
            width,
            pixels,
        }
    }

    /// Builds an image from a closure over `(row, col)`.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(height: usize, width: usize, mut f: F) -> Self {
        let pixels = (0..height * width)
            .map(|k| f(k / width, k % width))
            .collect();
        Image {
            height,
            width,
            pixels,
        }
    }

    /// Pixel accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn at(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.height && col < self.width, "pixel out of bounds");
        self.pixels[row * self.width + col]
    }
}

/// Unrolls `k x k` receptive fields (stride 1, valid padding) into the
/// columns of a `k*k x P` matrix, `P = (H-k+1)*(W-k+1)`.
///
/// # Panics
///
/// Panics if the kernel does not fit the image.
pub fn im2col(image: &Image, k: usize) -> RMatrix {
    assert!(k >= 1, "kernel must be at least 1x1");
    assert!(
        image.height >= k && image.width >= k,
        "kernel {k}x{k} does not fit {}x{}",
        image.height,
        image.width
    );
    let out_h = image.height - k + 1;
    let out_w = image.width - k + 1;
    let mut m = RMatrix::zeros(k * k, out_h * out_w);
    for oy in 0..out_h {
        for ox in 0..out_w {
            let col = oy * out_w + ox;
            for ky in 0..k {
                for kx in 0..k {
                    m[(ky * k + kx, col)] = image.at(oy + ky, ox + kx);
                }
            }
        }
    }
    m
}

/// A bank of `K` kernels of size `k x k` applied by GeMM.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvLayer {
    /// `K x k*k` kernel matrix (each row is one flattened kernel).
    pub kernels: RMatrix,
    kernel_size: usize,
}

impl ConvLayer {
    /// Creates a layer from flattened kernels.
    ///
    /// # Panics
    ///
    /// Panics if `kernels.cols()` is not a perfect square.
    pub fn new(kernels: RMatrix) -> Self {
        let k = (kernels.cols() as f64).sqrt().round() as usize;
        assert_eq!(k * k, kernels.cols(), "kernel rows must be k*k long");
        ConvLayer {
            kernels,
            kernel_size: k,
        }
    }

    /// Number of kernels (output channels).
    pub(crate) fn out_channels(&self) -> usize {
        self.kernels.rows()
    }

    /// Convolves via im2col + GeMM with the default (digital) multiply.
    pub fn forward(&self, image: &Image) -> Vec<Image> {
        self.forward_with(image, |w, cols| w.mul_mat(cols))
    }

    /// Convolves with a custom GeMM (e.g. a photonic engine). The closure
    /// receives the kernel matrix and the im2col patch matrix.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit, or the GeMM returns wrong shape.
    pub fn forward_with<F>(&self, image: &Image, gemm: F) -> Vec<Image>
    where
        F: FnOnce(&RMatrix, &RMatrix) -> RMatrix,
    {
        let k = self.kernel_size;
        let cols = im2col(image, k);
        let out = gemm(&self.kernels, &cols);
        assert_eq!(out.rows(), self.out_channels(), "gemm returned wrong rows");
        assert_eq!(out.cols(), cols.cols(), "gemm returned wrong cols");
        let out_h = image.height - k + 1;
        let out_w = image.width - k + 1;
        (0..self.out_channels())
            .map(|ch| {
                Image::new(
                    out_h,
                    out_w,
                    (0..out_h * out_w).map(|p| out[(ch, p)]).collect(),
                )
            })
            .collect()
    }
}

/// Reference direct convolution (valid padding, stride 1) for testing.
pub fn direct_convolve(image: &Image, kernel: &[f64], k: usize) -> Image {
    assert_eq!(kernel.len(), k * k, "kernel length mismatch");
    let out_h = image.height - k + 1;
    let out_w = image.width - k + 1;
    Image::from_fn(out_h, out_w, |oy, ox| {
        let mut acc = 0.0;
        for ky in 0..k {
            for kx in 0..k {
                acc += kernel[ky * k + kx] * image.at(oy + ky, ox + kx);
            }
        }
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_image() -> Image {
        Image::from_fn(6, 7, |r, c| (r * 7 + c) as f64 * 0.1)
    }

    #[test]
    fn im2col_shapes_and_content() {
        let img = test_image();
        let cols = im2col(&img, 3);
        assert_eq!(cols.rows(), 9);
        assert_eq!(cols.cols(), 4 * 5);
        // First column is the top-left 3x3 patch, row-major.
        assert_eq!(cols[(0, 0)], img.at(0, 0));
        assert_eq!(cols[(2, 0)], img.at(0, 2));
        assert_eq!(cols[(8, 0)], img.at(2, 2));
        // Last column is the bottom-right patch.
        let last = cols.cols() - 1;
        assert_eq!(cols[(8, last)], img.at(5, 6));
    }

    #[test]
    fn gemm_convolution_matches_direct() {
        let img = test_image();
        let kernels = RMatrix::from_rows(
            2,
            9,
            &[
                // Sobel-ish horizontal edge
                -1.0, -2.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 1.0, // blur
                0.111, 0.111, 0.111, 0.111, 0.111, 0.111, 0.111, 0.111, 0.111,
            ],
        );
        let layer = ConvLayer::new(kernels.clone());
        let maps = layer.forward(&img);
        assert_eq!(maps.len(), 2);
        for (ch, map) in maps.iter().enumerate() {
            let want = direct_convolve(&img, kernels.row(ch), 3);
            assert_eq!(map.height, want.height);
            for (a, b) in map.pixels.iter().zip(&want.pixels) {
                assert!((a - b).abs() < 1e-12, "channel {ch}");
            }
        }
    }

    #[test]
    fn custom_gemm_hook_is_used() {
        let img = test_image();
        let kernels = RMatrix::from_rows(1, 4, &[1.0, 0.0, 0.0, -1.0]);
        let layer = ConvLayer::new(kernels);
        // A GeMM that scales by 2 should scale the feature map by 2.
        let doubled = layer.forward_with(&img, |w, cols| w.mul_mat(cols).scaled(2.0));
        let normal = layer.forward(&img);
        for (a, b) in doubled[0].pixels.iter().zip(&normal[0].pixels) {
            assert!((a - 2.0 * b).abs() < 1e-12);
        }
    }

    #[test]
    fn identity_kernel_crops_image() {
        let img = test_image();
        let mut k = vec![0.0; 9];
        k[4] = 1.0; // center tap
        let out = direct_convolve(&img, &k, 3);
        assert_eq!(out.height, 4);
        assert_eq!(out.width, 5);
        assert_eq!(out.at(0, 0), img.at(1, 1));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_kernel_rejected() {
        let img = Image::from_fn(2, 2, |_, _| 0.0);
        let _ = im2col(&img, 3);
    }

    #[test]
    #[should_panic(expected = "k*k long")]
    fn non_square_kernel_rejected() {
        let _ = ConvLayer::new(RMatrix::zeros(1, 5));
    }
}
