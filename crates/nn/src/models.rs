//! Trainable model builders for the evaluation networks.
//!
//! Accuracy experiments run on *width/depth-scaled* variants of the paper's
//! models (see DESIGN.md substitution 2): `ModelCfg::width_div` divides all
//! channel counts and `depth_div` divides block counts, preserving each
//! architecture's topology (residual/dense connectivity, stage structure)
//! at a size trainable from scratch on one CPU.

use odq_tensor::Tensor;
use rand_chacha::ChaCha8Rng;

use crate::arch::Arch;
use crate::executor::ConvExecutor;
use crate::layers::{
    BatchNorm2d, Conv2d, DenseBlock, Flatten, GlobalAvgPool, Layer, Linear, MaxPool2d, OdqEmuCfg,
    QatCfg, ReLU, ResidualBlock, Sequential, Transition,
};
use crate::param::{init_rng, Param};

/// Configuration for building a trainable model.
#[derive(Clone, Copy, Debug)]
pub struct ModelCfg {
    /// Which architecture to build.
    pub arch: Arch,
    /// Input spatial size (square).
    pub input_hw: usize,
    /// Input channels (3 for CIFAR-like, 1 for MNIST-like).
    pub in_channels: usize,
    /// Number of output classes.
    pub num_classes: usize,
    /// Divide all channel counts by this (1 = full width).
    pub width_div: usize,
    /// Divide per-stage block counts / dense layers by this (1 = full depth).
    pub depth_div: usize,
    /// ReLU clip bound (Some(1.0) for DoReFa-style bounded activations).
    pub act_clip: Option<f32>,
    /// Quantization-aware-training config for all conv layers.
    pub qat: Option<QatCfg>,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl ModelCfg {
    /// A small, fast-to-train configuration used throughout the test suite
    /// and the accuracy experiments: 16×16 inputs, width ÷4, depth ÷3,
    /// clipped activations.
    pub fn small(arch: Arch, num_classes: usize) -> Self {
        Self {
            arch,
            input_hw: 16,
            in_channels: 3,
            num_classes,
            width_div: 4,
            depth_div: 3,
            act_clip: Some(1.0),
            qat: None,
            seed: 0x0d9,
        }
    }
}

/// A buildable, trainable DNN: a layer tree plus metadata.
pub struct Model {
    /// Display name.
    pub name: String,
    /// The architecture this model instantiates.
    pub arch: Arch,
    /// The layer tree.
    pub net: Sequential,
    /// The build configuration.
    pub cfg: ModelCfg,
}

impl Model {
    /// Build a model from a configuration.
    pub fn build(cfg: ModelCfg) -> Self {
        let mut rng = init_rng(cfg.seed);
        let net = match cfg.arch {
            Arch::LeNet5 => build_lenet(&cfg, &mut rng),
            Arch::ResNet20 => build_resnet(&cfg, 3, &mut rng),
            Arch::ResNet56 => build_resnet(&cfg, 9, &mut rng),
            Arch::Vgg16 => build_vgg(&cfg, &mut rng),
            Arch::DenseNet => build_densenet(&cfg, &mut rng),
        };
        Self { name: cfg.arch.name().to_string(), arch: cfg.arch, net, cfg }
    }

    /// Inference forward pass through a pluggable conv executor.
    pub fn forward_eval(&self, x: &Tensor, exec: &mut dyn ConvExecutor) -> Tensor {
        exec.begin_pass();
        self.net.forward_eval(x, exec)
    }

    /// Training forward pass.
    pub fn forward_train(&mut self, x: &Tensor) -> Tensor {
        self.net.forward_train(x)
    }

    /// Backward pass; returns the input gradient.
    pub fn backward(&mut self, dlogits: &Tensor) -> Tensor {
        self.net.backward(dlogits)
    }

    /// Visit all trainable parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.net.visit_params(f);
    }

    /// Total number of scalar parameters.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.numel());
        n
    }

    /// Install (or clear) a QAT config on every conv layer.
    pub fn set_qat(&mut self, qat: Option<QatCfg>) {
        self.net.visit_convs_mut(&mut |c| c.qat = qat);
        self.cfg.qat = qat;
    }

    /// Install (or clear) ODQ training emulation on every conv layer.
    pub fn set_odq_emu(&mut self, emu: Option<OdqEmuCfg>) {
        self.net.visit_convs_mut(&mut |c| c.odq_emu = emu);
    }

    /// Number of conv layers.
    pub fn conv_count(&mut self) -> usize {
        let mut n = 0;
        self.net.visit_convs_mut(&mut |_| n += 1);
        n
    }

    /// Snapshot all mutable model state: parameter values and batch-norm
    /// running statistics (momentum buffers are transient optimizer state
    /// and are excluded). Use with [`Model::restore_state`] to implement
    /// best-checkpoint training loops.
    pub fn snapshot_state(&mut self) -> Vec<f32> {
        let mut state = Vec::new();
        self.visit_params(&mut |p| state.extend_from_slice(p.value.as_slice()));
        self.net.visit_bns_mut(&mut |bn| {
            state.extend_from_slice(&bn.running_mean);
            state.extend_from_slice(&bn.running_var);
        });
        state
    }

    /// Restore state captured by [`Model::snapshot_state`].
    ///
    /// # Panics
    /// Panics if the snapshot length does not match this model.
    pub fn restore_state(&mut self, state: &[f32]) {
        let mut off = 0usize;
        self.visit_params(&mut |p| {
            let n = p.value.numel();
            p.value.as_mut_slice().copy_from_slice(&state[off..off + n]);
            off += n;
        });
        self.net.visit_bns_mut(&mut |bn| {
            let n = bn.running_mean.len();
            bn.running_mean.copy_from_slice(&state[off..off + n]);
            off += n;
            bn.running_var.copy_from_slice(&state[off..off + n]);
            off += n;
        });
        assert_eq!(off, state.len(), "snapshot length mismatch");
    }
}

fn div_ch(c: usize, div: usize) -> usize {
    (c / div.max(1)).max(1)
}

fn relu(cfg: &ModelCfg) -> ReLU {
    match cfg.act_clip {
        Some(c) => ReLU::clipped(c),
        None => ReLU::new(),
    }
}

fn build_lenet(cfg: &ModelCfg, rng: &mut ChaCha8Rng) -> Sequential {
    let mut s = Sequential::new();
    let c1 = div_ch(6, cfg.width_div);
    let c2 = div_ch(16, cfg.width_div);
    let mut conv1 = Conv2d::new("C1", cfg.in_channels, c1, 5, 1, 2, true, rng);
    conv1.qat = cfg.qat;
    s.push(conv1);
    s.push(relu(cfg));
    s.push(MaxPool2d::new(2));
    let mut conv2 = Conv2d::new("C2", c1, c2, 5, 1, 2, true, rng);
    conv2.qat = cfg.qat;
    s.push(conv2);
    s.push(relu(cfg));
    s.push(MaxPool2d::new(2));
    s.push(Flatten::new());
    let feat = c2 * (cfg.input_hw / 4) * (cfg.input_hw / 4);
    s.push(Linear::new(feat, div_ch(84, cfg.width_div), rng));
    s.push(relu(cfg));
    s.push(Linear::new(div_ch(84, cfg.width_div), cfg.num_classes, rng));
    s
}

fn build_resnet(cfg: &ModelCfg, blocks_per_stage: usize, rng: &mut ChaCha8Rng) -> Sequential {
    let n = (blocks_per_stage / cfg.depth_div.max(1)).max(1);
    let chans = [div_ch(16, cfg.width_div), div_ch(32, cfg.width_div), div_ch(64, cfg.width_div)];
    let mut s = Sequential::new();
    let mut conv1 = Conv2d::new("C1", cfg.in_channels, chans[0], 3, 1, 1, false, rng);
    conv1.qat = cfg.qat;
    s.push(conv1);
    s.push(BatchNorm2d::new(chans[0]));
    s.push(relu(cfg));

    let mut idx = 2usize;
    let mut in_ch = chans[0];
    for (stage, &out_ch) in chans.iter().enumerate() {
        for b in 0..n {
            let stride = if stage > 0 && b == 0 { 2 } else { 1 };
            let name1 = format!("C{idx}");
            let name2 = format!("C{}", idx + 1);
            idx += 2;
            s.push(ResidualBlock::new(
                name1,
                name2,
                in_ch,
                out_ch,
                stride,
                cfg.act_clip,
                cfg.qat,
                rng,
            ));
            in_ch = out_ch;
        }
    }
    s.push(GlobalAvgPool::new());
    s.push(Linear::new(in_ch, cfg.num_classes, rng));
    s
}

fn build_vgg(cfg: &ModelCfg, rng: &mut ChaCha8Rng) -> Sequential {
    let groups: [(usize, usize); 5] = [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)];
    let mut s = Sequential::new();
    let mut in_ch = cfg.in_channels;
    let mut size = cfg.input_hw;
    let mut idx = 1usize;
    let depth_keep = cfg.depth_div.max(1);
    for (out_ch_full, count) in groups {
        let out_ch = div_ch(out_ch_full, cfg.width_div);
        let count = (count / depth_keep).max(1);
        for _ in 0..count {
            let mut conv = Conv2d::new(format!("C{idx}"), in_ch, out_ch, 3, 1, 1, false, rng);
            conv.qat = cfg.qat;
            s.push(conv);
            s.push(BatchNorm2d::new(out_ch));
            s.push(relu(cfg));
            idx += 1;
            in_ch = out_ch;
        }
        // Pool only while the spatial size stays divisible (small scaled
        // inputs run out of halvings before the five VGG stages do).
        if size >= 2 && size.is_multiple_of(2) {
            s.push(MaxPool2d::new(2));
            size /= 2;
        }
    }
    s.push(GlobalAvgPool::new());
    s.push(Linear::new(in_ch, cfg.num_classes, rng));
    s
}

fn build_densenet(cfg: &ModelCfg, rng: &mut ChaCha8Rng) -> Sequential {
    let growth = div_ch(12, cfg.width_div);
    let layers_per_block = (12 / cfg.depth_div.max(1)).max(1);
    let init_ch = div_ch(16, cfg.width_div);
    let mut s = Sequential::new();
    let mut conv1 = Conv2d::new("C1", cfg.in_channels, init_ch, 3, 1, 1, false, rng);
    conv1.qat = cfg.qat;
    s.push(conv1);

    let mut ch = init_ch;
    let mut idx = 2usize;
    for block in 0..3 {
        let db = DenseBlock::new(idx, ch, growth, layers_per_block, cfg.act_clip, cfg.qat, rng);
        idx += layers_per_block;
        ch = db.out_channels(ch);
        s.push(db);
        if block < 2 {
            s.push(Transition::new(format!("C{idx}"), ch, ch, cfg.act_clip, cfg.qat, rng));
            idx += 1;
        }
    }
    s.push(BatchNorm2d::new(ch));
    s.push(relu(cfg));
    s.push(GlobalAvgPool::new());
    s.push(Linear::new(ch, cfg.num_classes, rng));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::FloatConvExecutor;

    fn x(n: usize, c: usize, hw: usize) -> Tensor {
        let data: Vec<f32> =
            (0..n * c * hw * hw).map(|i| ((i * 83 + 3) % 64) as f32 / 64.0).collect();
        Tensor::from_vec([n, c, hw, hw], data)
    }

    #[test]
    fn all_archs_build_and_forward() {
        for arch in [Arch::LeNet5, Arch::ResNet20, Arch::ResNet56, Arch::Vgg16, Arch::DenseNet] {
            let mut cfg = ModelCfg::small(arch, 10);
            if arch == Arch::LeNet5 {
                cfg.in_channels = 1;
            }
            let mut m = Model::build(cfg);
            let input = x(2, cfg.in_channels, cfg.input_hw);
            let yt = m.forward_train(&input);
            assert_eq!(yt.dims(), &[2, 10], "{arch:?} train output shape");
            let ye = m.forward_eval(&input, &mut FloatConvExecutor);
            assert_eq!(ye.dims(), &[2, 10], "{arch:?} eval output shape");
            assert!(yt.as_slice().iter().all(|v| v.is_finite()), "{arch:?} finite");
            assert!(m.param_count() > 0);
            assert!(m.conv_count() > 0);
        }
    }

    #[test]
    fn backward_runs_for_all_archs() {
        for arch in [Arch::ResNet20, Arch::Vgg16, Arch::DenseNet] {
            let cfg = ModelCfg::small(arch, 10);
            let mut m = Model::build(cfg);
            let input = x(2, 3, cfg.input_hw);
            let y = m.forward_train(&input);
            let dy = Tensor::full(y.shape().clone(), 0.1);
            let dx = m.backward(&dy);
            assert_eq!(dx.dims(), input.dims(), "{arch:?}");
            // Some parameter saw gradient.
            let mut any = false;
            m.visit_params(&mut |p| any |= p.grad.max_abs() > 0.0);
            assert!(any, "{arch:?}: no gradients accumulated");
        }
    }

    #[test]
    fn resnet20_small_conv_count() {
        let mut m = Model::build(ModelCfg::small(Arch::ResNet20, 10));
        // depth_div=3 => 1 block per stage => 1 stem + 3*2 block convs
        // + 2 projections = 9 convs.
        assert_eq!(m.conv_count(), 9);
    }

    #[test]
    fn set_qat_reaches_every_conv() {
        let mut m = Model::build(ModelCfg::small(Arch::DenseNet, 10));
        m.set_qat(Some(QatCfg::int4()));
        let mut all = true;
        m.net.visit_convs_mut(&mut |c| all &= c.qat.is_some());
        assert!(all);
        m.set_qat(None);
        let mut none = true;
        m.net.visit_convs_mut(&mut |c| none &= c.qat.is_none());
        assert!(none);
    }

    #[test]
    fn deterministic_build() {
        let a = Model::build(ModelCfg::small(Arch::ResNet20, 10));
        let b = Model::build(ModelCfg::small(Arch::ResNet20, 10));
        let input = x(1, 3, 16);
        let ya = a.forward_eval(&input, &mut FloatConvExecutor);
        let yb = b.forward_eval(&input, &mut FloatConvExecutor);
        assert_eq!(ya.as_slice(), yb.as_slice());
    }
}
