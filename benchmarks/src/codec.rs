//! `wire_codec`: the binary wire format, single-threaded. The only
//! workload that enters `runtime::wire` — the simulator passes messages
//! by move and never encodes them.

use crate::gen::{self, CodecInput, Scale};
use crate::stats::Digest;
use crate::trace::{Kind, Trace};
use crate::workload::{Layers, Rep, WorkUnit, Workload};
use gossipopt::runtime::{decode, encode};

/// Passes over the corpus per repetition. The first pass also verifies
/// every round trip by re-encoding; the others only encode and decode.
const PASSES: usize = 24;

pub struct Codec {
    input: CodecInput,
}

impl Codec {
    pub fn prepare(seed: u64, scale: Scale) -> Codec {
        Codec {
            input: gen::codec(seed, scale),
        }
    }

    /// Encode → decode → re-encode every message and compare bytes;
    /// hostile frames must be rejected. Returns the failures found.
    fn verify(&self, rep: &mut Rep, digest: &mut Digest) {
        let mut mismatches = 0u64;
        for (i, msg) in self.input.messages.iter().enumerate() {
            let frame = encode(msg);
            digest.bytes(&frame);
            match decode(&frame) {
                Ok(back) if encode(&back)[..] == frame[..] => {}
                Ok(_) => {
                    mismatches += 1;
                    rep.failures
                        .push(format!("message {i}: re-encoded bytes differ"));
                }
                Err(e) => {
                    mismatches += 1;
                    rep.failures
                        .push(format!("message {i}: own frame rejected: {e}"));
                }
            }
        }
        let mut rejected = 0u64;
        for (i, frame) in self.input.hostile.iter().enumerate() {
            match decode(frame) {
                Err(_) => rejected += 1,
                Ok(_) => rep.failures.push(format!("hostile frame {i} was accepted")),
            }
        }
        rep.counts
            .insert("runtime.wire.roundtrip_mismatch", mismatches as f64);
        rep.counts.insert(
            "runtime.wire.reject_share",
            rejected as f64 / self.input.hostile.len() as f64,
        );
    }
}

impl Workload for Codec {
    fn unit(&self) -> WorkUnit {
        WorkUnit::Frames
    }

    fn rep(&mut self, tr: &mut Trace) -> Rep {
        let mut rep = Rep::default();
        let mut digest = Digest::default();
        let frames = (self.input.messages.len() + self.input.hostile.len()) as u64;
        // Cheap per-pass check against the verified pass: total encoded
        // bytes, decoded kinds, and rejects must all agree.
        let (mut bytes, mut kinds, mut rejects) = (0u64, 0u64, 0u64);
        tr.span(Kind::Container, "rep", |tr| {
            tr.span(Kind::Layer, "harness.check", |_| {
                self.verify(&mut rep, &mut digest)
            });
            for _ in 1..PASSES {
                if tr.enabled() {
                    let messages = self.input.messages.len() as u64;
                    let encoded: Vec<_> =
                        tr.span_n(Kind::Layer, "runtime.wire.encode", messages, |_| {
                            self.input.messages.iter().map(encode).collect()
                        });
                    tr.span_n(Kind::Layer, "runtime.wire.decode", frames, |_| {
                        for frame in &encoded {
                            bytes += frame.len() as u64;
                            kinds += decode(frame).map_or(0, |m| 1 + m.kind_index() as u64);
                        }
                        for frame in &self.input.hostile {
                            rejects += u64::from(decode(frame).is_err());
                        }
                    });
                } else {
                    for msg in &self.input.messages {
                        let frame = encode(msg);
                        bytes += frame.len() as u64;
                        kinds += decode(&frame).map_or(0, |m| 1 + m.kind_index() as u64);
                    }
                    for frame in &self.input.hostile {
                        rejects += u64::from(decode(frame).is_err());
                    }
                }
            }
        });
        let expect_kinds: u64 = self
            .input
            .messages
            .iter()
            .map(|m| 1 + m.kind_index() as u64)
            .sum();
        let passes = PASSES as u64 - 1;
        if kinds != expect_kinds * passes || rejects != self.input.hostile.len() as u64 * passes {
            rep.failures
                .push("a timed pass decoded differently from the verified pass".into());
        }
        digest.u64(bytes);
        digest.u64(kinds);
        digest.u64(rejects);
        rep.digest = digest.value();
        rep.attempted = frames * PASSES as u64;
        rep.msgs = frames * PASSES as u64;
        rep.counts.insert(
            "runtime.wire.bytes_per_msg",
            bytes as f64 / (self.input.messages.len() as u64 * passes) as f64,
        );
        rep
    }

    fn probes(&self, _layers: &mut Layers) {}
}
