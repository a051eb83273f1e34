//! Checksummed checkpoint streams for long sample runs.
//!
//! A 5 kHz Monsoon capture that dies mid-run used to restart from t=0.
//! Checkpointing splits the run into fixed-size segments; each completed
//! segment is *sealed* into a [`SealedSegment`] — the raw sample values,
//! a CRC-32 over their bit patterns, and a snapshot of the cumulative
//! [`EnergyAccumulator`] after the segment. Sealed segments live on the
//! simulated disk and survive a crash; a resumed run salvages them and
//! restarts sampling at the last checkpoint boundary.
//!
//! Before a salvaged prefix is integrated into mAh totals it is verified
//! by [`CheckpointStream::verify`]: segment ordinals must be contiguous,
//! sample ranges must splice without gap or overlap, every CRC must
//! match, and the sealed cumulative aggregates must be bit-identical to
//! re-accumulating the sealed samples. A bad splice yields a
//! [`GapReport`] instead of a silently wrong total.

use std::fmt;

use batterylab_stats::EnergyAccumulator;

use crate::disk::crc32;

/// CRC-32 over the little-endian bit patterns of `samples`.
pub fn sample_crc(samples: &[f64]) -> u32 {
    let mut bytes = Vec::with_capacity(samples.len() * 8);
    for &s in samples {
        bytes.extend_from_slice(&s.to_bits().to_le_bytes());
    }
    crc32(&bytes)
}

/// Why a checkpoint splice was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GapKind {
    /// A segment starts after where the previous one ended.
    Gap,
    /// A segment starts before where the previous one ended.
    Overlap,
    /// A segment's samples no longer match their sealed CRC.
    Corrupt,
    /// A segment's sealed cumulative aggregates disagree with its samples.
    Inconsistent,
    /// The stream's plan (rate, voltage, total, run key) conflicts with
    /// the resume.
    PlanMismatch,
}

/// A rejected splice: which segment failed and why.
#[derive(Clone, Debug, PartialEq)]
pub struct GapReport {
    /// Ordinal of the offending segment.
    pub segment: u64,
    /// Failure class.
    pub kind: GapKind,
    /// Human-readable specifics (expected vs found).
    pub detail: String,
}

impl fmt::Display for GapReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "checkpoint splice rejected at segment {}: {:?} ({})",
            self.segment, self.kind, self.detail
        )
    }
}

impl std::error::Error for GapReport {}

/// One sealed sample-stream segment.
#[derive(Clone, Debug)]
pub struct SealedSegment {
    /// Segment ordinal, 0-based.
    pub index: u64,
    /// Global index of the segment's first sample.
    pub first_sample: u64,
    /// The sealed current samples (mA).
    pub samples: Vec<f64>,
    /// CRC-32 over the samples' f64 bit patterns.
    pub crc: u32,
    /// Cumulative energy aggregates after this segment.
    pub cumulative: EnergyAccumulator,
}

/// A durable sequence of sealed segments for one sample run.
#[derive(Clone, Debug)]
pub struct CheckpointStream {
    rate_hz: f64,
    voltage_v: f64,
    /// Samples per segment (the final segment may be shorter).
    interval: u64,
    /// Total samples the full run should produce (0 until configured).
    total: u64,
    /// The run's noise key: a resume draws the same noise only if its
    /// meter draws the same key.
    run_key: u64,
    /// Sealed segments in seal order. Public so tests can model disk
    /// corruption and truncation directly.
    pub segments: Vec<SealedSegment>,
}

impl CheckpointStream {
    /// A new stream sealing every `interval` samples.
    pub fn new(interval: u64) -> Self {
        assert!(interval > 0, "checkpoint interval must be positive");
        CheckpointStream {
            rate_hz: 0.0,
            voltage_v: 0.0,
            interval,
            total: 0,
            run_key: 0,
            segments: Vec::new(),
        }
    }

    /// Bind (or re-verify) the run plan. The first call records it; a
    /// resume must present the identical plan or the splice is rejected
    /// — resuming a 10 s capture as a 5 s one would silently drop tail
    /// samples otherwise, and resuming under another run key would
    /// splice two different noise sequences.
    pub fn configure(
        &mut self,
        rate_hz: f64,
        voltage_v: f64,
        total: u64,
        run_key: u64,
    ) -> Result<(), GapReport> {
        if self.total == 0 && self.segments.is_empty() {
            self.rate_hz = rate_hz;
            self.voltage_v = voltage_v;
            self.total = total;
            self.run_key = run_key;
            return Ok(());
        }
        if self.rate_hz.to_bits() != rate_hz.to_bits()
            || self.voltage_v.to_bits() != voltage_v.to_bits()
            || self.total != total
            || self.run_key != run_key
        {
            return Err(GapReport {
                segment: self.segments.len() as u64,
                kind: GapKind::PlanMismatch,
                detail: format!(
                    "sealed plan rate={} V={} total={} key={:#x} vs resume rate={} V={} \
                     total={} key={:#x}",
                    self.rate_hz,
                    self.voltage_v,
                    self.total,
                    self.run_key,
                    rate_hz,
                    voltage_v,
                    total,
                    run_key
                ),
            });
        }
        Ok(())
    }

    /// Samples per segment.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Total samples of the configured plan (0 before `configure`).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sampling rate of the configured plan.
    pub fn rate_hz(&self) -> f64 {
        self.rate_hz
    }

    /// Supply voltage of the configured plan.
    pub fn voltage_v(&self) -> f64 {
        self.voltage_v
    }

    /// Samples covered by sealed segments so far.
    pub fn sealed_samples(&self) -> u64 {
        self.segments
            .last()
            .map(|s| s.first_sample + s.samples.len() as u64)
            .unwrap_or(0)
    }

    /// Whether the sealed prefix already covers the whole plan.
    pub fn is_complete(&self) -> bool {
        self.total > 0 && self.sealed_samples() == self.total
    }

    /// Seal one completed segment. `cumulative` is the run's accumulator
    /// state *after* these samples.
    pub fn seal(&mut self, samples: &[f64], cumulative: &EnergyAccumulator) {
        let first_sample = self.sealed_samples();
        self.segments.push(SealedSegment {
            index: self.segments.len() as u64,
            first_sample,
            crc: sample_crc(samples),
            samples: samples.to_vec(),
            cumulative: cumulative.clone(),
        });
    }

    /// Verify the sealed prefix splices cleanly: contiguous ordinals and
    /// sample ranges, matching CRCs, and cumulative aggregates that are
    /// bit-identical to re-accumulating the sealed samples.
    pub fn verify(&self) -> Result<(), GapReport> {
        let mut expected_first = 0u64;
        let mut acc = if self.rate_hz > 0.0 {
            Some(EnergyAccumulator::new(self.rate_hz))
        } else {
            None
        };
        for (i, seg) in self.segments.iter().enumerate() {
            let i = i as u64;
            if seg.index != i {
                return Err(GapReport {
                    segment: i,
                    kind: GapKind::Gap,
                    detail: format!("expected segment ordinal {i}, found {}", seg.index),
                });
            }
            if seg.first_sample != expected_first {
                let kind = if seg.first_sample > expected_first {
                    GapKind::Gap
                } else {
                    GapKind::Overlap
                };
                return Err(GapReport {
                    segment: i,
                    kind,
                    detail: format!(
                        "segment starts at sample {}, previous sealed up to {}",
                        seg.first_sample, expected_first
                    ),
                });
            }
            if sample_crc(&seg.samples) != seg.crc {
                return Err(GapReport {
                    segment: i,
                    kind: GapKind::Corrupt,
                    detail: format!(
                        "CRC mismatch: sealed {:#010x}, samples hash to {:#010x}",
                        seg.crc,
                        sample_crc(&seg.samples)
                    ),
                });
            }
            expected_first += seg.samples.len() as u64;
            if let Some(acc) = acc.as_mut() {
                acc.push_slice(&seg.samples, self.voltage_v);
                let same = acc.samples() == seg.cumulative.samples()
                    && acc.mah().to_bits() == seg.cumulative.mah().to_bits()
                    && acc.mwh().to_bits() == seg.cumulative.mwh().to_bits()
                    && acc.min_ma().to_bits() == seg.cumulative.min_ma().to_bits()
                    && acc.max_ma().to_bits() == seg.cumulative.max_ma().to_bits();
                if !same {
                    return Err(GapReport {
                        segment: i,
                        kind: GapKind::Inconsistent,
                        detail: format!(
                            "sealed cumulative ({} samples, {} mAh) disagrees with \
                             re-accumulated samples ({} samples, {} mAh)",
                            seg.cumulative.samples(),
                            seg.cumulative.mah(),
                            acc.samples(),
                            acc.mah()
                        ),
                    });
                }
            }
            if self.total > 0 && expected_first > self.total {
                return Err(GapReport {
                    segment: i,
                    kind: GapKind::Overlap,
                    detail: format!(
                        "sealed samples ({expected_first}) exceed the plan total ({})",
                        self.total
                    ),
                });
            }
        }
        Ok(())
    }

    /// All sealed sample values, concatenated in order. Call
    /// [`Self::verify`] first; this does no checking of its own.
    pub fn concat_values(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.sealed_samples() as usize);
        for seg in &self.segments {
            out.extend_from_slice(&seg.samples);
        }
        out
    }

    /// The cumulative accumulator after the last sealed segment (a fresh
    /// one when nothing is sealed yet).
    pub fn final_energy(&self) -> EnergyAccumulator {
        match self.segments.last() {
            Some(seg) => seg.cumulative.clone(),
            None => EnergyAccumulator::new(if self.rate_hz > 0.0 {
                self.rate_hz
            } else {
                1.0
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed(values: &[&[f64]], rate: f64, v: f64) -> CheckpointStream {
        let total: u64 = values.iter().map(|s| s.len() as u64).sum();
        let mut stream = CheckpointStream::new(values.first().map(|s| s.len() as u64).unwrap_or(1));
        stream.configure(rate, v, total, 7).unwrap();
        let mut acc = EnergyAccumulator::new(rate);
        for seg in values {
            acc.push_slice(seg, v);
            stream.seal(seg, &acc);
        }
        stream
    }

    #[test]
    fn clean_splice_verifies() {
        let stream = sealed(&[&[100.0, 101.0], &[102.0, 103.0], &[104.0]], 10.0, 4.0);
        stream.verify().unwrap();
        assert_eq!(stream.sealed_samples(), 5);
        assert!(stream.is_complete());
        assert_eq!(
            stream.concat_values(),
            vec![100.0, 101.0, 102.0, 103.0, 104.0]
        );
        assert_eq!(stream.final_energy().samples(), 5);
    }

    #[test]
    fn missing_segment_is_a_gap() {
        let mut stream = sealed(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]], 10.0, 4.0);
        stream.segments.remove(1);
        let err = stream.verify().unwrap_err();
        assert_eq!(err.kind, GapKind::Gap);
        assert_eq!(err.segment, 1);
    }

    #[test]
    fn duplicated_segment_is_an_overlap() {
        let mut stream = sealed(&[&[1.0, 2.0], &[3.0, 4.0]], 10.0, 4.0);
        let mut dup = stream.segments[1].clone();
        dup.index = 2;
        stream.segments.push(dup);
        let err = stream.verify().unwrap_err();
        assert_eq!(err.kind, GapKind::Overlap);
    }

    #[test]
    fn flipped_sample_is_corrupt() {
        let mut stream = sealed(&[&[1.0, 2.0], &[3.0, 4.0]], 10.0, 4.0);
        stream.segments[1].samples[0] = 3.0000001;
        let err = stream.verify().unwrap_err();
        assert_eq!(err.kind, GapKind::Corrupt);
        assert_eq!(err.segment, 1);
    }

    #[test]
    fn doctored_cumulative_is_inconsistent() {
        let mut stream = sealed(&[&[1.0, 2.0]], 10.0, 4.0);
        let mut fake = EnergyAccumulator::new(10.0);
        fake.push_slice(&[9.0, 9.0], 4.0);
        stream.segments[0].cumulative = fake;
        let err = stream.verify().unwrap_err();
        assert_eq!(err.kind, GapKind::Inconsistent);
    }

    #[test]
    fn plan_mismatch_on_resume_is_rejected() {
        let mut stream = sealed(&[&[1.0, 2.0]], 10.0, 4.0);
        assert!(stream.configure(10.0, 4.0, 2, 7).is_ok());
        let err = stream.configure(20.0, 4.0, 2, 7).unwrap_err();
        assert_eq!(err.kind, GapKind::PlanMismatch);
        let err = stream.configure(10.0, 4.0, 2, 8).unwrap_err();
        assert_eq!(err.kind, GapKind::PlanMismatch);
    }

    #[test]
    fn gap_report_displays_context() {
        let mut stream = sealed(&[&[1.0], &[2.0]], 10.0, 4.0);
        stream.segments[1].samples[0] = 7.0;
        let msg = stream.verify().unwrap_err().to_string();
        assert!(msg.contains("segment 1"));
        assert!(msg.contains("Corrupt"));
    }
}
