//! The model section: a complete serialized [`Bnn`].
//!
//! The layout mirrors the in-memory network: name, input shape, then the
//! layer stack, with each layer tagged by kind. Binary weight matrices
//! are dumped as their packed little-endian `u64` words, so loading
//! allocates exactly the packed representation with no per-bit work.
//!
//! Every invariant that the `eb-bitnn` constructors enforce by panicking
//! (threshold counts, conv fan-in arithmetic, ragged output rows) is
//! validated here *before* the constructor runs, so corrupt bytes turn
//! into [`ArtifactError::Malformed`] instead of a panic.

use crate::error::ArtifactError;
use crate::wire::{ByteReader, ByteWriter};
use eb_bitnn::{
    BinConv, BinLinear, BitMatrix, Bnn, FixedConv, FixedLinear, Layer, OutputLinear, Shape,
    ThresholdSpec,
};

const SHAPE_FLAT: u8 = 0;
const SHAPE_IMG: u8 = 1;

const LAYER_FIXED_LINEAR: u8 = 0;
const LAYER_FIXED_CONV: u8 = 1;
const LAYER_BIN_LINEAR: u8 = 2;
const LAYER_BIN_CONV: u8 = 3;
const LAYER_MAXPOOL2: u8 = 4;
const LAYER_FLATTEN: u8 = 5;
const LAYER_OUTPUT: u8 = 6;

pub(crate) fn put_shape(w: &mut ByteWriter, shape: Shape) {
    match shape {
        Shape::Flat(n) => {
            w.put_u8(SHAPE_FLAT);
            w.put_usize(n);
        }
        Shape::Img(c, h, wid) => {
            w.put_u8(SHAPE_IMG);
            w.put_usize(c);
            w.put_usize(h);
            w.put_usize(wid);
        }
    }
}

pub(crate) fn get_shape(r: &mut ByteReader<'_>) -> Result<Shape, ArtifactError> {
    match r.u8()? {
        SHAPE_FLAT => Ok(Shape::Flat(r.usize()?)),
        SHAPE_IMG => Ok(Shape::Img(r.usize()?, r.usize()?, r.usize()?)),
        tag => Err(ArtifactError::malformed(format!("shape tag {tag}"))),
    }
}

pub(crate) fn put_bitmatrix(w: &mut ByteWriter, m: &BitMatrix) {
    w.put_u32(m.rows() as u32);
    w.put_u32(m.cols() as u32);
    for r in 0..m.rows() {
        for &word in m.row_words(r) {
            w.put_u64(word);
        }
    }
}

pub(crate) fn get_bitmatrix(r: &mut ByteReader<'_>) -> Result<BitMatrix, ArtifactError> {
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    let words = (rows as u64).saturating_mul(cols.div_ceil(64) as u64);
    let claimed_bytes = words.saturating_mul(8);
    if claimed_bytes > r.remaining() as u64 {
        return Err(ArtifactError::Truncated {
            context: "bit matrix words",
        });
    }
    let mut data = Vec::with_capacity(words as usize);
    for _ in 0..words {
        data.push(r.u64()?);
    }
    BitMatrix::from_words(rows, cols, data).ok_or_else(|| {
        ArtifactError::malformed(format!(
            "bit matrix {rows}×{cols}: bad word count or set padding bits"
        ))
    })
}

fn put_thresholds(w: &mut ByteWriter, specs: &[ThresholdSpec]) {
    w.put_u32(specs.len() as u32);
    for spec in specs {
        w.put_i64(spec.threshold());
        w.put_bool(spec.is_flipped());
    }
}

/// Reads thresholds, requiring exactly `expected` of them so the
/// layer-constructor count assertion can never fire.
fn get_thresholds(
    r: &mut ByteReader<'_>,
    expected: usize,
) -> Result<Vec<ThresholdSpec>, ArtifactError> {
    let count = r.count(9)?;
    if count != expected {
        return Err(ArtifactError::malformed(format!(
            "threshold count {count} != weight rows {expected}"
        )));
    }
    let mut specs = Vec::with_capacity(count);
    for _ in 0..count {
        let t = r.i64()?;
        let flipped = r.bool()?;
        specs.push(if flipped {
            ThresholdSpec::fire_below(t)
        } else {
            ThresholdSpec::fire_at_or_above(t)
        });
    }
    Ok(specs)
}

/// Conv geometry shared by `FixedConv` and `BinConv`.
struct ConvGeom {
    in_channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
}

fn get_conv_geom(r: &mut ByteReader<'_>, filters: &BitMatrix) -> Result<ConvGeom, ArtifactError> {
    let in_channels = r.u32()? as usize;
    let kernel = r.u32()? as usize;
    let stride = r.u32()? as usize;
    let pad = r.u32()? as usize;
    let fan_in = (in_channels as u64) * (kernel as u64) * (kernel as u64);
    if fan_in != filters.cols() as u64 {
        return Err(ArtifactError::malformed(format!(
            "conv fan-in {in_channels}·{kernel}² = {fan_in} != filter columns {}",
            filters.cols()
        )));
    }
    Ok(ConvGeom {
        in_channels,
        kernel,
        stride,
        pad,
    })
}

fn put_layer(w: &mut ByteWriter, layer: &Layer) -> Result<(), ArtifactError> {
    match layer {
        Layer::FixedLinear(l) => {
            w.put_u8(LAYER_FIXED_LINEAR);
            w.put_str(layer.name());
            put_bitmatrix(w, l.weights());
            put_thresholds(w, l.thresholds());
        }
        Layer::FixedConv(l) => {
            w.put_u8(LAYER_FIXED_CONV);
            w.put_str(layer.name());
            put_bitmatrix(w, l.filters());
            put_thresholds(w, l.thresholds());
            w.put_u32(l.in_channels() as u32);
            w.put_u32(l.kernel() as u32);
            w.put_u32(l.stride() as u32);
            w.put_u32(l.pad() as u32);
        }
        Layer::BinLinear(l) => {
            w.put_u8(LAYER_BIN_LINEAR);
            w.put_str(layer.name());
            put_bitmatrix(w, l.weights());
            put_thresholds(w, l.thresholds());
        }
        Layer::BinConv(l) => {
            w.put_u8(LAYER_BIN_CONV);
            w.put_str(layer.name());
            put_bitmatrix(w, l.filters());
            put_thresholds(w, l.thresholds());
            w.put_u32(l.in_channels() as u32);
            w.put_u32(l.kernel() as u32);
            w.put_u32(l.stride() as u32);
            w.put_u32(l.pad() as u32);
        }
        Layer::MaxPool2 => w.put_u8(LAYER_MAXPOOL2),
        Layer::Flatten => w.put_u8(LAYER_FLATTEN),
        Layer::Output(l) => {
            w.put_u8(LAYER_OUTPUT);
            w.put_str(layer.name());
            let rows = l.weights().len();
            let cols = l.weights().first().map_or(0, Vec::len);
            w.put_u32(rows as u32);
            w.put_u32(cols as u32);
            for row in l.weights() {
                for &v in row {
                    w.put_f32(v);
                }
            }
            for &b in l.bias() {
                w.put_f32(b);
            }
        }
        // `Layer` is non_exhaustive upstream; a variant this writer does
        // not know cannot be represented in format v1.
        other => {
            return Err(ArtifactError::malformed(format!(
                "layer '{}' has no format-v1 encoding",
                other.name()
            )))
        }
    }
    Ok(())
}

fn get_layer(r: &mut ByteReader<'_>) -> Result<Layer, ArtifactError> {
    match r.u8()? {
        LAYER_FIXED_LINEAR => {
            let name = r.str()?;
            let weights = get_bitmatrix(r)?;
            let thresholds = get_thresholds(r, weights.rows())?;
            Ok(Layer::FixedLinear(FixedLinear::new(
                name, weights, thresholds,
            )))
        }
        LAYER_FIXED_CONV => {
            let name = r.str()?;
            let filters = get_bitmatrix(r)?;
            let thresholds = get_thresholds(r, filters.rows())?;
            let g = get_conv_geom(r, &filters)?;
            Ok(Layer::FixedConv(FixedConv::new(
                name,
                filters,
                thresholds,
                g.in_channels,
                g.kernel,
                g.stride,
                g.pad,
            )))
        }
        LAYER_BIN_LINEAR => {
            let name = r.str()?;
            let weights = get_bitmatrix(r)?;
            let thresholds = get_thresholds(r, weights.rows())?;
            Ok(Layer::BinLinear(BinLinear::new(name, weights, thresholds)))
        }
        LAYER_BIN_CONV => {
            let name = r.str()?;
            let filters = get_bitmatrix(r)?;
            let thresholds = get_thresholds(r, filters.rows())?;
            let g = get_conv_geom(r, &filters)?;
            Ok(Layer::BinConv(BinConv::new(
                name,
                filters,
                thresholds,
                g.in_channels,
                g.kernel,
                g.stride,
                g.pad,
            )))
        }
        LAYER_MAXPOOL2 => Ok(Layer::MaxPool2),
        LAYER_FLATTEN => Ok(Layer::Flatten),
        LAYER_OUTPUT => {
            let name = r.str()?;
            let rows = r.u32()? as usize;
            let cols = r.u32()? as usize;
            let claimed = (rows as u64)
                .saturating_mul(cols as u64)
                .saturating_add(rows as u64)
                .saturating_mul(4);
            if claimed > r.remaining() as u64 {
                return Err(ArtifactError::Truncated {
                    context: "output layer weights",
                });
            }
            let mut weights = Vec::with_capacity(rows);
            for _ in 0..rows {
                let mut row = Vec::with_capacity(cols);
                for _ in 0..cols {
                    row.push(r.f32()?);
                }
                weights.push(row);
            }
            let mut bias = Vec::with_capacity(rows);
            for _ in 0..rows {
                bias.push(r.f32()?);
            }
            Ok(Layer::Output(OutputLinear::new(name, weights, bias)))
        }
        tag => Err(ArtifactError::malformed(format!("layer tag {tag}"))),
    }
}

/// Serializes a network into the model-section payload.
pub(crate) fn encode_model(net: &Bnn) -> Result<Vec<u8>, ArtifactError> {
    let mut w = ByteWriter::new();
    w.put_str(net.name());
    put_shape(&mut w, net.input_shape());
    w.put_u32(net.layers().len() as u32);
    for layer in net.layers() {
        put_layer(&mut w, layer)?;
    }
    Ok(w.into_inner())
}

/// Decodes and shape-checks a network from a model-section payload.
pub(crate) fn decode_model(payload: &[u8]) -> Result<Bnn, ArtifactError> {
    let mut r = ByteReader::new(payload, "model section");
    let name = r.str()?;
    let input_shape = get_shape(&mut r)?;
    let count = r.count(1)?;
    let mut layers = Vec::with_capacity(count);
    for _ in 0..count {
        layers.push(get_layer(&mut r)?);
    }
    r.finish()?;
    Bnn::new(name, input_shape, layers)
        .map_err(|e| ArtifactError::malformed(format!("network fails shape check: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn conv_net() -> Bnn {
        let mut rng = StdRng::seed_from_u64(11);
        Bnn::new(
            "convnet",
            Shape::Img(1, 8, 8),
            vec![
                Layer::FixedConv(FixedConv::random("c1", 1, 4, 3, 1, 1, &mut rng)),
                Layer::MaxPool2,
                Layer::BinConv(BinConv::random("c2", 4, 4, 3, 1, 1, &mut rng)),
                Layer::Flatten,
                Layer::BinLinear(BinLinear::random("h1", 64, 16, &mut rng)),
                Layer::Output(OutputLinear::random("out", 16, 4, &mut rng)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn model_round_trips_exactly() {
        let net = conv_net();
        let bytes = encode_model(&net).unwrap();
        let back = decode_model(&bytes).unwrap();
        assert_eq!(net, back);
    }

    #[test]
    fn mlp_round_trips_exactly() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = Bnn::new(
            "mlp",
            Shape::Flat(32),
            vec![
                Layer::FixedLinear(FixedLinear::random("in", 32, 24, &mut rng)),
                Layer::BinLinear(BinLinear::random("h", 24, 24, &mut rng)),
                Layer::Output(OutputLinear::random("out", 24, 10, &mut rng)),
            ],
        )
        .unwrap();
        let bytes = encode_model(&net).unwrap();
        assert_eq!(decode_model(&bytes).unwrap(), net);
    }

    #[test]
    fn bad_layer_tag_is_malformed() {
        let net = conv_net();
        let mut bytes = encode_model(&net).unwrap();
        // The first layer tag sits right after name and shape.
        let tag_pos = 4 + net.name().len() + 1 + 24 + 4;
        bytes[tag_pos] = 250;
        assert!(matches!(
            decode_model(&bytes),
            Err(ArtifactError::Malformed { .. })
        ));
    }

    /// A checksum-valid container whose model section holds `layer` alone
    /// over `input`, written field by field so `Bnn::new` never sees it.
    fn crafted_container(input: Shape, layer: &Layer) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_str("crafted");
        put_shape(&mut w, input);
        w.put_u32(1);
        put_layer(&mut w, layer).unwrap();
        crate::format::encode_container(&[(crate::SECTION_MODEL, w.into_inner())])
    }

    fn assert_shape_check_fails(bytes: &[u8]) {
        let err = crate::decode(bytes).unwrap_err();
        assert!(
            matches!(&err, ArtifactError::Malformed { context } if context.contains("kernel")),
            "{err}"
        );
    }

    #[test]
    fn stride_zero_conv_is_malformed_not_a_panic() {
        let mut rng = StdRng::seed_from_u64(5);
        let conv = FixedConv::random("c1", 1, 2, 3, 0, 1, &mut rng);
        assert_shape_check_fails(&crafted_container(
            Shape::Img(1, 4, 4),
            &Layer::FixedConv(conv),
        ));
    }

    #[test]
    fn kernel_larger_than_padded_input_is_malformed_not_a_panic() {
        let mut rng = StdRng::seed_from_u64(6);
        let conv = BinConv::random("c1", 1, 2, 5, 1, 1, &mut rng);
        assert_shape_check_fails(&crafted_container(
            Shape::Img(1, 2, 2),
            &Layer::BinConv(conv),
        ));
    }

    #[test]
    fn truncated_model_is_truncated() {
        let bytes = encode_model(&conv_net()).unwrap();
        let cut = &bytes[..bytes.len() / 2];
        assert!(decode_model(cut).is_err());
    }
}
