//! A fully-connected (dense) layer with reusable backprop workspaces.

use crate::activation::Activation;
use crate::optimizer::Optimizer;
use elmrl_linalg::random::xavier_uniform;
use elmrl_linalg::Matrix;
use rand::Rng;

/// One dense layer: `y = G(x·W + b)` with `W ∈ R^{in×out}`, `b ∈ R^{1×out}`.
///
/// [`DenseLayer::forward_training`] caches the input, pre-activation and
/// output so that [`DenseLayer::backward`] can compute gradients without
/// re-running the forward pass. Every cache and gradient is an owned
/// workspace matrix, reshaped in place on each call, so a training step at
/// a steady batch shape performs no heap allocation.
#[derive(Clone, Debug)]
pub struct DenseLayer {
    weights: Matrix<f64>,
    bias: Matrix<f64>,
    activation: Activation,
    /// Whether the caches hold a forward pass (`backward` needs one).
    cached: bool,
    input: Matrix<f64>,
    preact: Matrix<f64>,
    output: Matrix<f64>,
    dz: Matrix<f64>,
    grad_weights: Matrix<f64>,
    grad_bias: Matrix<f64>,
    grad_input: Matrix<f64>,
}

impl DenseLayer {
    /// Create a layer with Xavier-uniform weights and zero bias.
    pub fn new<R: Rng + ?Sized>(
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        Self {
            weights: xavier_uniform(input_dim, output_dim, rng),
            bias: Matrix::zeros(1, output_dim),
            activation,
            cached: false,
            input: Matrix::default(),
            preact: Matrix::default(),
            output: Matrix::default(),
            dz: Matrix::default(),
            grad_weights: Matrix::default(),
            grad_bias: Matrix::default(),
            grad_input: Matrix::default(),
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.weights.cols()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Immutable access to the weight matrix.
    pub fn weights(&self) -> &Matrix<f64> {
        &self.weights
    }

    /// Immutable access to the bias row vector.
    pub fn bias(&self) -> &Matrix<f64> {
        &self.bias
    }

    /// Mutable access to the weight matrix (used by tests).
    pub fn weights_mut(&mut self) -> &mut Matrix<f64> {
        &mut self.weights
    }

    /// Mutable access to the bias (used by tests).
    pub fn bias_mut(&mut self) -> &mut Matrix<f64> {
        &mut self.bias
    }

    /// The output of the last [`DenseLayer::forward_training`].
    pub(crate) fn output(&self) -> &Matrix<f64> {
        &self.output
    }

    /// Gradient of the loss w.r.t. the weights, from the last backward pass.
    pub fn grad_weights(&self) -> &Matrix<f64> {
        &self.grad_weights
    }

    /// Gradient of the loss w.r.t. the bias, from the last backward pass.
    pub fn grad_bias(&self) -> &Matrix<f64> {
        &self.grad_bias
    }

    /// Number of trainable parameters in this layer.
    pub fn parameter_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// Inference-only forward pass (no caches touched).
    pub fn forward(&self, input: &Matrix<f64>) -> Matrix<f64> {
        let mut out = Matrix::zeros(input.rows(), self.weights.cols());
        self.forward_into(input, &mut out);
        out
    }

    /// [`DenseLayer::forward`] into a caller-owned output matrix (reshaped,
    /// reusing its allocation) — the allocation-free inference form.
    /// Bit-for-bit identical to `forward`.
    pub fn forward_into(&self, input: &Matrix<f64>, out: &mut Matrix<f64>) {
        affine_into(&self.weights, &self.bias, input, out);
        self.activation.apply_matrix_inplace(out);
    }

    /// Forward pass that caches input, pre-activation and output for a
    /// subsequent [`DenseLayer::backward`] call, and returns the output.
    /// Bit-for-bit identical to [`DenseLayer::forward`].
    pub fn forward_training(&mut self, input: &Matrix<f64>) -> &Matrix<f64> {
        self.input.clone_from(input);
        affine_into(&self.weights, &self.bias, input, &mut self.preact);
        self.output.clone_from(&self.preact);
        self.activation.apply_matrix_inplace(&mut self.output);
        self.cached = true;
        &self.output
    }

    /// Back-propagate `grad_output` (∂L/∂y of this layer) into the weight
    /// and bias gradients only — what the first layer of a network needs,
    /// since nothing reads ∂L/∂x of the network input.
    ///
    /// Panics if called before `forward_training`.
    pub(crate) fn backward_params(&mut self, grad_output: &Matrix<f64>) {
        assert!(self.cached, "backward called before forward_training");
        assert_eq!(
            grad_output.shape(),
            self.preact.shape(),
            "backward: grad shape mismatch"
        );

        // dL/dz = dL/dy ⊙ G'(z)
        let activation = self.activation;
        self.dz
            .resize_zeroed(grad_output.rows(), grad_output.cols());
        for ((d, &g), &z) in self
            .dz
            .as_mut_slice()
            .iter_mut()
            .zip(grad_output.iter())
            .zip(self.preact.iter())
        {
            *d = g * activation.derivative(z);
        }

        // dL/dW = xᵀ · dz ; dL/db = column sums of dz
        self.input.t_matmul_into(&self.dz, &mut self.grad_weights);
        self.grad_bias.resize_zeroed(1, self.dz.cols());
        let gb = self.grad_bias.as_mut_slice();
        for r in 0..self.dz.rows() {
            for (acc, &d) in gb.iter_mut().zip(self.dz.row(r)) {
                *acc += d;
            }
        }
    }

    /// Back-propagate `grad_output` (∂L/∂y of this layer) into the weight
    /// and bias gradients, and return ∂L/∂x = dz · Wᵀ for the previous layer
    /// from the layer's own workspace.
    ///
    /// Panics if called before `forward_training`.
    pub fn backward(&mut self, grad_output: &Matrix<f64>) -> &Matrix<f64> {
        self.backward_params(grad_output);
        self.dz.matmul_t_into(&self.weights, &mut self.grad_input);
        &self.grad_input
    }

    /// ∂L/∂x from the last [`DenseLayer::backward`].
    pub(crate) fn grad_input(&self) -> &Matrix<f64> {
        &self.grad_input
    }

    /// Apply the stored gradients through `optimizer`, which reads them in
    /// place: the weights use slot `slot`, the bias slot `slot + 1`.
    pub(crate) fn apply_gradients<O: Optimizer>(&mut self, slot: usize, optimizer: &mut O) {
        optimizer.update(slot, &mut self.weights, &self.grad_weights);
        optimizer.update(slot + 1, &mut self.bias, &self.grad_bias);
    }

    /// Copy the weights and bias from another layer (target-network sync),
    /// reusing this layer's allocations.
    pub fn copy_parameters_from(&mut self, other: &DenseLayer) {
        assert_eq!(
            self.weights.shape(),
            other.weights.shape(),
            "copy: weight shape mismatch"
        );
        self.weights.clone_from(&other.weights);
        self.bias.clone_from(&other.bias);
    }
}

/// `input·W + b` into a caller-owned matrix — the single copy of the affine
/// arithmetic that the inference and the training forward passes share
/// (keeping them bit-for-bit identical by construction).
fn affine_into(
    weights: &Matrix<f64>,
    bias: &Matrix<f64>,
    input: &Matrix<f64>,
    out: &mut Matrix<f64>,
) {
    assert_eq!(
        input.cols(),
        weights.rows(),
        "dense layer: input has {} features, expected {}",
        input.cols(),
        weights.rows()
    );
    input.matmul_into(weights, out);
    let bias = bias.row(0);
    for r in 0..out.rows() {
        for (v, &b) in out.row_mut(r).iter_mut().zip(bias) {
            *v += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn layer(activation: Activation) -> DenseLayer {
        let mut rng = SmallRng::seed_from_u64(5);
        DenseLayer::new(3, 2, activation, &mut rng)
    }

    #[test]
    fn shapes_and_parameter_count() {
        let l = layer(Activation::ReLU);
        assert_eq!(l.input_dim(), 3);
        assert_eq!(l.output_dim(), 2);
        assert_eq!(l.parameter_count(), 3 * 2 + 2);
        assert_eq!(l.activation(), Activation::ReLU);
        let x = Matrix::<f64>::ones(4, 3);
        assert_eq!(l.forward(&x).shape(), (4, 2));
    }

    #[test]
    fn forward_identity_layer_is_affine() {
        let mut l = layer(Activation::Identity);
        // set known weights/bias
        *l.weights_mut() = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        *l.bias_mut() = Matrix::from_rows(&[vec![0.5, -0.5]]);
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
        let y = l.forward(&x);
        assert!((y[(0, 0)] - 4.5).abs() < 1e-12);
        assert!((y[(0, 1)] - 4.5).abs() < 1e-12);
    }

    #[test]
    fn training_forward_matches_inference_forward() {
        let mut l = layer(Activation::Tanh);
        let x = Matrix::from_rows(&[vec![0.1, -0.2, 0.3], vec![1.0, 0.5, -1.0]]);
        let inference = l.forward(&x);
        let training = l.forward_training(&x);
        assert!(inference.max_abs_diff(training) < 1e-15);
    }

    #[test]
    #[should_panic(expected = "backward called before forward_training")]
    fn backward_without_forward_panics() {
        let mut l = layer(Activation::ReLU);
        let _ = l.backward(&Matrix::zeros(1, 2));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut l = DenseLayer::new(4, 3, Activation::Tanh, &mut rng);
        let x = Matrix::from_rows(&[vec![0.3, -0.1, 0.7, 0.2], vec![-0.5, 0.4, 0.1, -0.9]]);
        let target = Matrix::from_rows(&[vec![0.1, 0.2, 0.3], vec![-0.1, 0.0, 0.5]]);
        let loss = |l: &DenseLayer, x: &Matrix<f64>| {
            let y = l.forward(x);
            let d = &y - &target;
            d.iter().map(|&v| v * v).sum::<f64>() * 0.5
        };

        // analytic gradients
        let y = l.forward_training(&x).clone();
        let grad_out = &y - &target; // dL/dy for 0.5·Σ(y−t)²
        let grad_in = l.backward(&grad_out).clone();

        let h = 1e-6;
        // check dL/dW for a few entries
        for (r, c) in [(0usize, 0usize), (2, 1), (3, 2)] {
            let orig = l.weights()[(r, c)];
            l.weights_mut()[(r, c)] = orig + h;
            let plus = loss(&l, &x);
            l.weights_mut()[(r, c)] = orig - h;
            let minus = loss(&l, &x);
            l.weights_mut()[(r, c)] = orig;
            let numeric = (plus - minus) / (2.0 * h);
            assert!(
                (numeric - l.grad_weights()[(r, c)]).abs() < 1e-5,
                "dW({r},{c}): numeric {numeric} vs {}",
                l.grad_weights()[(r, c)]
            );
        }
        // check dL/db
        for c in 0..3 {
            let orig = l.bias()[(0, c)];
            l.bias_mut()[(0, c)] = orig + h;
            let plus = loss(&l, &x);
            l.bias_mut()[(0, c)] = orig - h;
            let minus = loss(&l, &x);
            l.bias_mut()[(0, c)] = orig;
            let numeric = (plus - minus) / (2.0 * h);
            assert!((numeric - l.grad_bias()[(0, c)]).abs() < 1e-5, "db({c})");
        }
        // check dL/dx for one entry
        {
            let mut xp = x.clone();
            xp[(0, 1)] += h;
            let plus = loss(&l, &xp);
            let mut xm = x.clone();
            xm[(0, 1)] -= h;
            let minus = loss(&l, &xm);
            let numeric = (plus - minus) / (2.0 * h);
            assert!((numeric - grad_in[(0, 1)]).abs() < 1e-5, "dx(0,1)");
        }
    }

    #[test]
    fn copy_parameters_syncs_target_layer() {
        let mut rng = SmallRng::seed_from_u64(9);
        let a = DenseLayer::new(3, 2, Activation::ReLU, &mut rng);
        let mut b = DenseLayer::new(3, 2, Activation::ReLU, &mut rng);
        assert!(a.weights().max_abs_diff(b.weights()) > 0.0);
        b.copy_parameters_from(&a);
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.bias(), b.bias());
    }

    #[test]
    #[should_panic(expected = "input has 2 features, expected 3")]
    fn wrong_input_width_panics() {
        let l = layer(Activation::ReLU);
        let _ = l.forward(&Matrix::<f64>::ones(1, 2));
    }
}
