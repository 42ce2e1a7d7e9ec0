//! Sequential container.

use odq_tensor::Tensor;

use crate::executor::ConvExecutor;
use crate::param::Param;

use super::Layer;

/// A sequence of layers applied in order. Implements [`Layer`] itself, so
/// sequences nest.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Empty sequence.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Append a layer (builder style).
    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of direct child layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Iterate over child layers.
    pub fn iter(&self) -> impl Iterator<Item = &Box<dyn Layer>> {
        self.layers.iter()
    }

    /// Iterate mutably over child layers.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Box<dyn Layer>> {
        self.layers.iter_mut()
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Sequential {
    fn forward_eval(&self, x: &Tensor, exec: &mut dyn ConvExecutor) -> Tensor {
        let mut h = x.clone();
        for l in &self.layers {
            h = l.forward_eval(&h, exec);
        }
        h
    }

    fn forward_train(&mut self, x: &Tensor) -> Tensor {
        let mut h = x.clone();
        for l in &mut self.layers {
            h = l.forward_train(&h);
        }
        h
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mut d = dy.clone();
        for l in self.layers.iter_mut().rev() {
            d = l.backward(&d);
        }
        d
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }

    fn visit_convs_mut(&mut self, f: &mut dyn FnMut(&mut super::conv::Conv2d)) {
        for l in &mut self.layers {
            l.visit_convs_mut(f);
        }
    }

    fn visit_bns_mut(&mut self, f: &mut dyn FnMut(&mut super::bn::BatchNorm2d)) {
        for l in &mut self.layers {
            l.visit_bns_mut(f);
        }
    }

    fn name(&self) -> String {
        format!("sequential[{}]", self.layers.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::FloatConvExecutor;
    use crate::layers::act::ReLU;

    #[test]
    fn sequential_composes_forward_and_backward() {
        let mut s = Sequential::new();
        s.push(ReLU::new());
        s.push(ReLU::clipped(1.0));
        let x = Tensor::from_vec([4], vec![-1.0, 0.5, 1.5, 2.0]);
        let y = s.forward_train(&x);
        assert_eq!(y.as_slice(), &[0.0, 0.5, 1.0, 1.0]);
        let dy = Tensor::from_vec([4], vec![1.0; 4]);
        let dx = s.backward(&dy);
        assert_eq!(dx.as_slice(), &[0.0, 1.0, 0.0, 0.0]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn eval_matches_train() {
        let mut s = Sequential::new();
        s.push(ReLU::new());
        let x = Tensor::from_vec([2], vec![-3.0, 3.0]);
        let yt = s.forward_train(&x);
        let ye = s.forward_eval(&x, &mut FloatConvExecutor);
        assert_eq!(yt.as_slice(), ye.as_slice());
    }
}
