//! Model checkpoint serialization.
//!
//! A deliberately simple, dependency-free binary format ("ODQW"):
//!
//! ```text
//! magic  b"ODQW"          4 bytes
//! version u32 LE          4 bytes
//! param_count u32 LE      4 bytes
//! bn_count u32 LE         4 bytes
//! for each param:  len u32 LE, then len f32 LE values
//! for each bn:     channels u32 LE, running_mean, running_var (f32 LE each)
//! ```
//!
//! Parameters and BN statistics are stored in the deterministic visitor
//! order, so a checkpoint is valid for exactly the model configuration it
//! was saved from — [`load_model`] verifies every length.

use std::io::{self, Read, Write};

use std::path::Path;

use odq_tensor::Tensor;

use crate::layers::QatCfg;
use crate::models::{Model, ModelCfg};
use crate::policy::PrecisionPolicy;
use crate::Arch;
use crate::Layer as _;

const MAGIC: &[u8; 4] = b"ODQW";
const VERSION: u32 = 1;

/// Errors from checkpoint loading.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not an ODQW file or unsupported version.
    Format(String),
    /// Checkpoint does not match the model's architecture.
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Format(m) => write!(f, "bad checkpoint format: {m}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint/model mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

pub(crate) fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f32s(w: &mut impl Write, vs: &[f32]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(vs.len() * 4);
    for v in vs {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    w.write_all(&buf)
}

pub(crate) fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_f32s(r: &mut impl Read, n: usize) -> io::Result<Vec<f32>> {
    let mut buf = vec![0u8; n * 4];
    r.read_exact(&mut buf)?;
    Ok(buf.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
}

/// Serialize a model's parameters and BN statistics to a writer.
pub fn save_model_to(model: &mut Model, w: &mut impl Write) -> io::Result<()> {
    // First pass: counts.
    let mut n_params = 0u32;
    model.visit_params(&mut |_| n_params += 1);
    let mut n_bns = 0u32;
    model.net.visit_bns_mut(&mut |_| n_bns += 1);

    w.write_all(MAGIC)?;
    write_u32(w, VERSION)?;
    write_u32(w, n_params)?;
    write_u32(w, n_bns)?;

    let mut err: Option<io::Error> = None;
    model.visit_params(&mut |p| {
        if err.is_some() {
            return;
        }
        if let Err(e) =
            write_u32(w, p.value.numel() as u32).and_then(|_| write_f32s(w, p.value.as_slice()))
        {
            err = Some(e);
        }
    });
    model.net.visit_bns_mut(&mut |bn| {
        if err.is_some() {
            return;
        }
        if let Err(e) = write_u32(w, bn.running_mean.len() as u32)
            .and_then(|_| write_f32s(w, &bn.running_mean))
            .and_then(|_| write_f32s(w, &bn.running_var))
        {
            err = Some(e);
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Save a model checkpoint to a file.
pub fn save_model(model: &mut Model, path: impl AsRef<Path>) -> io::Result<()> {
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    save_model_to(model, &mut f)?;
    // Flush explicitly: BufWriter's Drop swallows flush errors, which would
    // turn a short write into a silently corrupt checkpoint.
    f.flush()
}

/// Load a checkpoint into an already-built model of the same configuration.
///
/// On error the model may be left **partially updated** (values stream in
/// as they are read); callers that need atomicity should snapshot with
/// [`Model::snapshot_state`] first and restore on failure.
pub fn load_model_from(model: &mut Model, r: &mut impl Read) -> Result<(), CheckpointError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::Format("bad magic".into()));
    }
    let version = read_u32(r)?;
    if version != VERSION {
        return Err(CheckpointError::Format(format!("unsupported version {version}")));
    }
    let n_params = read_u32(r)?;
    let n_bns = read_u32(r)?;

    let mut want_params = 0u32;
    model.visit_params(&mut |_| want_params += 1);
    let mut want_bns = 0u32;
    model.net.visit_bns_mut(&mut |_| want_bns += 1);
    if n_params != want_params || n_bns != want_bns {
        return Err(CheckpointError::Mismatch(format!(
            "checkpoint has {n_params} params / {n_bns} bns, model wants {want_params} / {want_bns}"
        )));
    }

    let mut failure: Option<CheckpointError> = None;
    model.visit_params(&mut |p| {
        if failure.is_some() {
            return;
        }
        match read_u32(r) {
            Ok(len) if len as usize == p.value.numel() => match read_f32s(r, len as usize) {
                Ok(vs) => p.value.as_mut_slice().copy_from_slice(&vs),
                Err(e) => failure = Some(e.into()),
            },
            Ok(len) => {
                failure = Some(CheckpointError::Mismatch(format!(
                    "param length {len} != expected {}",
                    p.value.numel()
                )))
            }
            Err(e) => failure = Some(e.into()),
        }
    });
    model.net.visit_bns_mut(&mut |bn| {
        if failure.is_some() {
            return;
        }
        match read_u32(r) {
            Ok(len) if len as usize == bn.running_mean.len() => {
                match read_f32s(r, len as usize)
                    .and_then(|m| read_f32s(r, len as usize).map(|v| (m, v)))
                {
                    Ok((m, v)) => {
                        bn.running_mean.copy_from_slice(&m);
                        bn.running_var.copy_from_slice(&v);
                    }
                    Err(e) => failure = Some(e.into()),
                }
            }
            Ok(len) => {
                failure = Some(CheckpointError::Mismatch(format!(
                    "bn length {len} != expected {}",
                    bn.running_mean.len()
                )))
            }
            Err(e) => failure = Some(e.into()),
        }
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Load a checkpoint file into an already-built model.
pub fn load_model(model: &mut Model, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    let mut f = io::BufReader::new(std::fs::File::open(path)?);
    load_model_from(model, &mut f)
}

const TENSORS_MAGIC: &[u8; 4] = b"ODQT";
const TENSORS_VERSION: u32 = 1;

/// Serialize a set of named tensors ("ODQT" format) — the container used
/// by the conformance suite's committed golden fixtures:
///
/// ```text
/// magic  b"ODQT"          4 bytes
/// version u32 LE          4 bytes
/// entry_count u32 LE      4 bytes
/// for each entry: name_len u32 LE, name (UTF-8), ndim u32 LE,
///                 each dim u32 LE, then numel f32 LE values
/// ```
///
/// Bit patterns round-trip exactly (`to_le_bytes`/`from_le_bytes` on the
/// raw f32s), which is what lets fixture verification compare outputs for
/// bit equality rather than approximately.
pub fn save_tensors_to(w: &mut impl Write, entries: &[(&str, &Tensor)]) -> io::Result<()> {
    w.write_all(TENSORS_MAGIC)?;
    write_u32(w, TENSORS_VERSION)?;
    write_u32(w, entries.len() as u32)?;
    for (name, t) in entries {
        write_u32(w, name.len() as u32)?;
        w.write_all(name.as_bytes())?;
        let dims = t.dims();
        write_u32(w, dims.len() as u32)?;
        for &d in dims {
            write_u32(w, d as u32)?;
        }
        write_f32s(w, t.as_slice())?;
    }
    Ok(())
}

/// [`save_tensors_to`] writing to a file path.
pub fn save_tensors(path: impl AsRef<Path>, entries: &[(&str, &Tensor)]) -> io::Result<()> {
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    save_tensors_to(&mut f, entries)
}

/// Deserialize a named-tensor set written by [`save_tensors_to`],
/// preserving entry order.
pub fn load_tensors_from(r: &mut impl Read) -> Result<Vec<(String, Tensor)>, CheckpointError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != TENSORS_MAGIC {
        return Err(CheckpointError::Format("bad magic (not an ODQT tensor file)".into()));
    }
    let version = read_u32(r)?;
    if version != TENSORS_VERSION {
        return Err(CheckpointError::Format(format!("unsupported ODQT version {version}")));
    }
    let count = read_u32(r)? as usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len = read_u32(r)? as usize;
        if name_len > 4096 {
            return Err(CheckpointError::Format(format!("entry name too long ({name_len})")));
        }
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let name = String::from_utf8(name)
            .map_err(|_| CheckpointError::Format("entry name is not UTF-8".into()))?;
        let ndim = read_u32(r)? as usize;
        if ndim == 0 || ndim > 8 {
            return Err(CheckpointError::Format(format!("bad rank {ndim} for entry {name}")));
        }
        let mut dims = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            dims.push(read_u32(r)? as usize);
        }
        let numel: usize = dims.iter().product();
        let data = read_f32s(r, numel)?;
        out.push((name, Tensor::from_vec(dims, data)));
    }
    Ok(out)
}

/// [`load_tensors_from`] reading from a file path.
pub fn load_tensors(path: impl AsRef<Path>) -> Result<Vec<(String, Tensor)>, CheckpointError> {
    let mut f = io::BufReader::new(std::fs::File::open(path)?);
    load_tensors_from(&mut f)
}

const MANIFEST_MAGIC: &[u8; 4] = b"ODQM";
/// Current ODQM manifest version. Version 2 appends an optional
/// [`PrecisionPolicy`] chunk after the metadata section; version-1
/// manifests (no policy) still load.
const MANIFEST_VERSION: u32 = 2;

/// A whole-model checkpoint: enough to rebuild the model from nothing.
///
/// Unlike the positional "ODQW" format (which requires an already-built
/// model of the right configuration), a manifest carries the architecture
/// descriptor itself, so [`load_manifest_from`] can reconstruct the model
/// and then install the weights — the unit a model registry versions,
/// ships, and rolls back.
pub struct ModelManifest {
    /// The rebuilt model with the manifest's weights installed.
    pub model: Model,
    /// Free-form metadata recorded at save time (training notes,
    /// threshold-search results, provenance), in saved order.
    pub meta: Vec<(String, String)>,
    /// The per-layer precision policy published with the model, if any
    /// (manifest version ≥ 2).
    pub policy: Option<PrecisionPolicy>,
}

fn arch_tag(arch: Arch) -> u32 {
    match arch {
        Arch::LeNet5 => 0,
        Arch::ResNet20 => 1,
        Arch::ResNet56 => 2,
        Arch::Vgg16 => 3,
        Arch::DenseNet => 4,
    }
}

fn tag_arch(tag: u32) -> Result<Arch, CheckpointError> {
    Ok(match tag {
        0 => Arch::LeNet5,
        1 => Arch::ResNet20,
        2 => Arch::ResNet56,
        3 => Arch::Vgg16,
        4 => Arch::DenseNet,
        other => return Err(CheckpointError::Format(format!("unknown architecture tag {other}"))),
    })
}

pub(crate) fn write_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    write_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())
}

pub(crate) fn read_str(r: &mut impl Read, what: &str) -> Result<String, CheckpointError> {
    let len = read_u32(r)? as usize;
    if len > 1 << 20 {
        return Err(CheckpointError::Format(format!("{what} too long ({len})")));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| CheckpointError::Format(format!("{what} is not UTF-8")))
}

/// Serialize a whole-model "ODQM" manifest: architecture descriptor
/// (everything [`Model::build`] needs), free-form metadata, then the
/// model's named weights and BN statistics as an embedded ODQT tensor set.
///
/// ```text
/// magic  b"ODQM"          4 bytes
/// version u32 LE          4 bytes
/// arch_tag, input_hw, in_channels, num_classes,
///     width_div, depth_div   u32 LE each
/// seed u64 LE             8 bytes
/// act_clip: flag u32 LE, then f32 bit pattern u32 LE when 1
/// qat:      flag u32 LE, then w_bits u32, a_bits u32, a_clip bits u32
/// meta_count u32 LE, then (key, value) length-prefixed UTF-8 pairs
/// policy:   flag u32 LE, then a versioned policy chunk when 1 (v2+)
/// embedded ODQT set: params "p0", "p1", ... in visitor order, then
///     "bn0.mean", "bn0.var", ... in visitor order
/// ```
///
/// Weight bit patterns round-trip exactly (the ODQT container stores raw
/// f32 little-endian bytes), so a manifest save/load is bit-reproducible:
/// the reloaded model's forward pass is element-wise identical. The policy
/// chunk stores its f32 fields as raw bit patterns, so an embedded
/// [`PrecisionPolicy`] round-trips bit-exactly too.
pub fn save_manifest_to(
    model: &mut Model,
    meta: &[(String, String)],
    w: &mut impl Write,
) -> io::Result<()> {
    save_manifest_with_policy_to(model, meta, None, w)
}

/// [`save_manifest_to`] with an optional embedded [`PrecisionPolicy`], so
/// a per-layer precision assignment versions, publishes, and rolls back
/// with the weights it was tuned for.
pub fn save_manifest_with_policy_to(
    model: &mut Model,
    meta: &[(String, String)],
    policy: Option<&PrecisionPolicy>,
    w: &mut impl Write,
) -> io::Result<()> {
    let cfg = model.cfg;
    w.write_all(MANIFEST_MAGIC)?;
    write_u32(w, MANIFEST_VERSION)?;
    write_u32(w, arch_tag(cfg.arch))?;
    write_u32(w, cfg.input_hw as u32)?;
    write_u32(w, cfg.in_channels as u32)?;
    write_u32(w, cfg.num_classes as u32)?;
    write_u32(w, cfg.width_div as u32)?;
    write_u32(w, cfg.depth_div as u32)?;
    w.write_all(&cfg.seed.to_le_bytes())?;
    match cfg.act_clip {
        Some(c) => {
            write_u32(w, 1)?;
            write_u32(w, c.to_bits())?;
        }
        None => write_u32(w, 0)?,
    }
    match cfg.qat {
        Some(q) => {
            write_u32(w, 1)?;
            write_u32(w, q.w_bits as u32)?;
            write_u32(w, q.a_bits as u32)?;
            write_u32(w, q.a_clip.to_bits())?;
        }
        None => write_u32(w, 0)?,
    }
    write_u32(w, meta.len() as u32)?;
    for (k, v) in meta {
        write_str(w, k)?;
        write_str(w, v)?;
    }
    match policy {
        Some(p) => {
            write_u32(w, 1)?;
            p.write_to(w)?;
        }
        None => write_u32(w, 0)?,
    }

    // Gather the named state, then write it as one ODQT set.
    let mut names: Vec<String> = Vec::new();
    let mut tensors: Vec<Tensor> = Vec::new();
    let mut i = 0usize;
    model.visit_params(&mut |p| {
        names.push(format!("p{i}"));
        tensors.push(p.value.clone());
        i += 1;
    });
    let mut j = 0usize;
    model.net.visit_bns_mut(&mut |bn| {
        names.push(format!("bn{j}.mean"));
        tensors.push(Tensor::from_vec(vec![bn.running_mean.len()], bn.running_mean.clone()));
        names.push(format!("bn{j}.var"));
        tensors.push(Tensor::from_vec(vec![bn.running_var.len()], bn.running_var.clone()));
        j += 1;
    });
    let entries: Vec<(&str, &Tensor)> =
        names.iter().map(String::as_str).zip(tensors.iter()).collect();
    save_tensors_to(w, &entries)
}

/// Rebuild a model from an "ODQM" manifest written by
/// [`save_manifest_to`]: construct the architecture from the descriptor,
/// then install every named tensor, verifying names and shapes.
pub fn load_manifest_from(r: &mut impl Read) -> Result<ModelManifest, CheckpointError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MANIFEST_MAGIC {
        return Err(CheckpointError::Format("bad magic (not an ODQM manifest)".into()));
    }
    let version = read_u32(r)?;
    if version == 0 || version > MANIFEST_VERSION {
        return Err(CheckpointError::Format(format!("unsupported ODQM version {version}")));
    }
    let arch = tag_arch(read_u32(r)?)?;
    let input_hw = read_u32(r)? as usize;
    let in_channels = read_u32(r)? as usize;
    let num_classes = read_u32(r)? as usize;
    let width_div = read_u32(r)? as usize;
    let depth_div = read_u32(r)? as usize;
    let mut seed_bytes = [0u8; 8];
    r.read_exact(&mut seed_bytes)?;
    let seed = u64::from_le_bytes(seed_bytes);
    let act_clip = match read_u32(r)? {
        0 => None,
        1 => Some(f32::from_bits(read_u32(r)?)),
        other => return Err(CheckpointError::Format(format!("bad act_clip flag {other}"))),
    };
    let qat = match read_u32(r)? {
        0 => None,
        1 => {
            let w_bits = read_u32(r)? as u8;
            let a_bits = read_u32(r)? as u8;
            let a_clip = f32::from_bits(read_u32(r)?);
            Some(QatCfg { w_bits, a_bits, a_clip })
        }
        other => return Err(CheckpointError::Format(format!("bad qat flag {other}"))),
    };
    let meta_count = read_u32(r)? as usize;
    if meta_count > 1 << 16 {
        return Err(CheckpointError::Format(format!("implausible meta count {meta_count}")));
    }
    let mut meta = Vec::with_capacity(meta_count);
    for _ in 0..meta_count {
        let k = read_str(r, "meta key")?;
        let v = read_str(r, "meta value")?;
        meta.push((k, v));
    }
    let policy = if version >= 2 {
        match read_u32(r)? {
            0 => None,
            1 => Some(PrecisionPolicy::read_from(r)?),
            other => return Err(CheckpointError::Format(format!("bad policy flag {other}"))),
        }
    } else {
        None
    };

    let cfg = ModelCfg {
        arch,
        input_hw,
        in_channels,
        num_classes,
        width_div,
        depth_div,
        act_clip,
        qat,
        seed,
    };
    let mut model = Model::build(cfg);
    let tensors = load_tensors_from(r)?;
    let mut cursor = tensors.into_iter();
    let mut failure: Option<CheckpointError> = None;
    let mut next = |want_name: &str, want_len: usize| -> Option<Tensor> {
        match cursor.next() {
            Some((name, t)) if name == want_name && t.numel() == want_len => Some(t),
            Some((name, t)) => {
                failure.get_or_insert(CheckpointError::Mismatch(format!(
                    "expected entry {want_name} ({want_len} values), found {name} ({})",
                    t.numel()
                )));
                None
            }
            None => {
                failure.get_or_insert(CheckpointError::Mismatch(format!(
                    "manifest ends before entry {want_name}"
                )));
                None
            }
        }
    };
    let mut i = 0usize;
    model.visit_params(&mut |p| {
        if let Some(t) = next(&format!("p{i}"), p.value.numel()) {
            p.value.as_mut_slice().copy_from_slice(t.as_slice());
        }
        i += 1;
    });
    let mut j = 0usize;
    model.net.visit_bns_mut(&mut |bn| {
        if let Some(t) = next(&format!("bn{j}.mean"), bn.running_mean.len()) {
            bn.running_mean.copy_from_slice(t.as_slice());
        }
        if let Some(t) = next(&format!("bn{j}.var"), bn.running_var.len()) {
            bn.running_var.copy_from_slice(t.as_slice());
        }
        j += 1;
    });
    if let Some(e) = failure {
        return Err(e);
    }
    if let Some((name, _)) = cursor.next() {
        return Err(CheckpointError::Mismatch(format!("unexpected trailing entry {name}")));
    }
    Ok(ModelManifest { model, meta, policy })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::FloatConvExecutor;
    use crate::models::ModelCfg;
    use crate::Arch;
    use odq_tensor::Tensor;

    fn model() -> Model {
        let mut cfg = ModelCfg::small(Arch::ResNet20, 4);
        cfg.input_hw = 8;
        Model::build(cfg)
    }

    fn input() -> Tensor {
        Tensor::from_vec([1, 3, 8, 8], (0..192).map(|i| (i % 50) as f32 / 50.0).collect::<Vec<_>>())
    }

    #[test]
    fn roundtrip_preserves_outputs() {
        let mut a = model();
        // Perturb weights so we're not saving the deterministic init.
        a.visit_params(&mut |p| {
            for (i, v) in p.value.as_mut_slice().iter_mut().enumerate() {
                *v += (i % 7) as f32 * 1e-3;
            }
        });
        let mut buf = Vec::new();
        save_model_to(&mut a, &mut buf).unwrap();

        let mut b = model();
        load_model_from(&mut b, &mut io::Cursor::new(&buf)).unwrap();

        let x = input();
        let ya = a.forward_eval(&x, &mut FloatConvExecutor);
        let yb = b.forward_eval(&x, &mut FloatConvExecutor);
        assert_eq!(ya.as_slice(), yb.as_slice());
    }

    #[test]
    fn rejects_bad_magic() {
        let mut m = model();
        let err = load_model_from(&mut m, &mut io::Cursor::new(b"NOPE....".to_vec()));
        assert!(matches!(err, Err(CheckpointError::Format(_))));
    }

    #[test]
    fn tensor_set_roundtrips_bit_exactly() {
        let a = Tensor::from_vec([2, 3], vec![0.1, -0.2, 3.5e-9, f32::MIN_POSITIVE, -0.0, 1.0]);
        let b = Tensor::from_vec([4], vec![1.0, 2.0, 3.0, 4.0]);
        let mut buf = Vec::new();
        save_tensors_to(&mut buf, &[("a", &a), ("b", &b)]).unwrap();
        let loaded = load_tensors_from(&mut io::Cursor::new(&buf)).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].0, "a");
        assert_eq!(loaded[0].1.dims(), &[2, 3]);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&loaded[0].1), bits(&a));
        assert_eq!(bits(&loaded[1].1), bits(&b));
    }

    #[test]
    fn tensor_set_rejects_bad_magic() {
        let err = load_tensors_from(&mut io::Cursor::new(b"NOPE....".to_vec()));
        assert!(matches!(err, Err(CheckpointError::Format(_))));
    }

    #[test]
    fn rejects_wrong_architecture() {
        let mut a = model();
        let mut buf = Vec::new();
        save_model_to(&mut a, &mut buf).unwrap();

        let mut cfg = ModelCfg::small(Arch::Vgg16, 4);
        cfg.input_hw = 8;
        let mut other = Model::build(cfg);
        let err = load_model_from(&mut other, &mut io::Cursor::new(&buf));
        assert!(matches!(err, Err(CheckpointError::Mismatch(_))), "{err:?}");
    }

    #[test]
    fn rejects_truncated_file() {
        let mut a = model();
        let mut buf = Vec::new();
        save_model_to(&mut a, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        let mut b = model();
        let err = load_model_from(&mut b, &mut io::Cursor::new(&buf));
        assert!(matches!(err, Err(CheckpointError::Io(_))));
    }

    #[test]
    fn manifest_roundtrip_is_bit_exact_and_needs_no_prebuilt_model() {
        let mut a = model();
        a.visit_params(&mut |p| {
            for (i, v) in p.value.as_mut_slice().iter_mut().enumerate() {
                *v += ((i % 13) as f32 - 6.0) * 1e-3;
            }
        });
        a.net.visit_bns_mut(&mut |bn| {
            for (i, m) in bn.running_mean.iter_mut().enumerate() {
                *m = (i as f32) * 0.01 - 0.05;
            }
        });
        let meta =
            vec![("trained_epochs".to_string(), "12".to_string()), ("note".into(), "ε≤1".into())];
        let mut buf = Vec::new();
        save_manifest_to(&mut a, &meta, &mut buf).unwrap();

        // No model is built beforehand: the manifest carries the descriptor.
        let loaded = load_manifest_from(&mut io::Cursor::new(&buf)).unwrap();
        assert_eq!(loaded.meta, meta);
        let mut b = loaded.model;
        assert_eq!(b.cfg.arch, a.cfg.arch);
        assert_eq!(b.cfg.input_hw, a.cfg.input_hw);

        let x = input();
        let ya = a.forward_eval(&x, &mut FloatConvExecutor);
        let yb = b.forward_eval(&x, &mut FloatConvExecutor);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&ya), bits(&yb), "manifest roundtrip must be bit-exact");
        // BN statistics survive too.
        let mut means_a = Vec::new();
        a.net.visit_bns_mut(&mut |bn| means_a.push(bn.running_mean.clone()));
        let mut means_b = Vec::new();
        b.net.visit_bns_mut(&mut |bn| means_b.push(bn.running_mean.clone()));
        assert_eq!(means_a, means_b);
    }

    #[test]
    fn manifest_preserves_qat_and_act_clip_descriptor() {
        let mut cfg = ModelCfg::small(Arch::LeNet5, 4);
        cfg.input_hw = 8;
        cfg.qat = Some(crate::layers::QatCfg::int4());
        cfg.act_clip = None;
        let mut m = Model::build(cfg);
        let mut buf = Vec::new();
        save_manifest_to(&mut m, &[], &mut buf).unwrap();
        let loaded = load_manifest_from(&mut io::Cursor::new(&buf)).unwrap();
        assert_eq!(loaded.model.cfg.qat, Some(crate::layers::QatCfg::int4()));
        assert_eq!(loaded.model.cfg.act_clip, None);
        assert_eq!(loaded.model.cfg.seed, cfg.seed);
    }

    #[test]
    fn manifest_embedded_policy_roundtrips_bit_exactly() {
        use crate::policy::{PrecisionPolicy, Route};
        let mut m = model();
        let policy = PrecisionPolicy::uniform(Route::Static { w_bits: 8, a_bits: 8, a_clip: 1.0 })
            .with("C1", Route::Odq { threshold: 0.3, sparse: false })
            .with(
                "C2",
                Route::Drq { hi_bits: 8, lo_bits: 4, a_clip: 1.0, region: 2, input_threshold: 0.1 },
            )
            .with("C3", Route::Float);
        let mut buf = Vec::new();
        save_manifest_with_policy_to(&mut m, &[], Some(&policy), &mut buf).unwrap();
        let loaded = load_manifest_from(&mut io::Cursor::new(&buf)).unwrap();
        assert_eq!(loaded.policy.as_ref(), Some(&policy));
        // Saving the reloaded manifest reproduces identical bytes: the
        // policy chunk (and everything else) is canonical.
        let mut again = loaded.model;
        let mut buf2 = Vec::new();
        save_manifest_with_policy_to(&mut again, &[], loaded.policy.as_ref(), &mut buf2).unwrap();
        assert_eq!(buf, buf2, "manifest with embedded policy must round-trip bit-exactly");
    }

    #[test]
    fn manifest_without_policy_loads_as_none() {
        let mut m = model();
        let mut buf = Vec::new();
        save_manifest_to(&mut m, &[], &mut buf).unwrap();
        let loaded = load_manifest_from(&mut io::Cursor::new(&buf)).unwrap();
        assert!(loaded.policy.is_none());
    }

    #[test]
    fn version1_manifest_still_loads() {
        // Hand-write a version-1 manifest (no policy section) and check the
        // loader accepts it — committed v1 fixtures must keep loading.
        let mut m = model();
        let cfg = m.cfg;
        let mut buf = Vec::new();
        buf.extend_from_slice(MANIFEST_MAGIC);
        write_u32(&mut buf, 1).unwrap();
        write_u32(&mut buf, arch_tag(cfg.arch)).unwrap();
        write_u32(&mut buf, cfg.input_hw as u32).unwrap();
        write_u32(&mut buf, cfg.in_channels as u32).unwrap();
        write_u32(&mut buf, cfg.num_classes as u32).unwrap();
        write_u32(&mut buf, cfg.width_div as u32).unwrap();
        write_u32(&mut buf, cfg.depth_div as u32).unwrap();
        buf.extend_from_slice(&cfg.seed.to_le_bytes());
        match cfg.act_clip {
            Some(c) => {
                write_u32(&mut buf, 1).unwrap();
                write_u32(&mut buf, c.to_bits()).unwrap();
            }
            None => write_u32(&mut buf, 0).unwrap(),
        }
        assert!(cfg.qat.is_none(), "test model is not QAT-configured");
        write_u32(&mut buf, 0).unwrap(); // qat flag
        write_u32(&mut buf, 0).unwrap(); // meta count
                                         // No policy flag in v1: the ODQT set follows immediately.
        let mut names: Vec<String> = Vec::new();
        let mut tensors: Vec<Tensor> = Vec::new();
        let mut i = 0usize;
        m.visit_params(&mut |p| {
            names.push(format!("p{i}"));
            tensors.push(p.value.clone());
            i += 1;
        });
        let mut j = 0usize;
        m.net.visit_bns_mut(&mut |bn| {
            names.push(format!("bn{j}.mean"));
            tensors.push(Tensor::from_vec(vec![bn.running_mean.len()], bn.running_mean.clone()));
            names.push(format!("bn{j}.var"));
            tensors.push(Tensor::from_vec(vec![bn.running_var.len()], bn.running_var.clone()));
            j += 1;
        });
        let entries: Vec<(&str, &Tensor)> =
            names.iter().map(String::as_str).zip(tensors.iter()).collect();
        save_tensors_to(&mut buf, &entries).unwrap();

        let loaded = load_manifest_from(&mut io::Cursor::new(&buf)).unwrap();
        assert!(loaded.policy.is_none());
        let x = input();
        let b = loaded.model;
        let ya = m.forward_eval(&x, &mut FloatConvExecutor);
        let yb = b.forward_eval(&x, &mut FloatConvExecutor);
        assert_eq!(ya.as_slice(), yb.as_slice());
    }

    #[test]
    fn manifest_rejects_bad_magic_and_truncation() {
        let err = load_manifest_from(&mut io::Cursor::new(b"NOPE....".to_vec()));
        assert!(matches!(err, Err(CheckpointError::Format(_))));
        let mut m = model();
        let mut buf = Vec::new();
        save_manifest_to(&mut m, &[], &mut buf).unwrap();
        buf.truncate(buf.len() - 9);
        let err = load_manifest_from(&mut io::Cursor::new(&buf));
        assert!(err.is_err(), "truncated manifest must not load");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("odq-ckpt-test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("m.odqw");
        let mut a = model();
        save_model(&mut a, &path).unwrap();
        let mut b = model();
        load_model(&mut b, &path).unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
