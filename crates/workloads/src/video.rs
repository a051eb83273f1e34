//! Video workloads.
//!
//! The paper's Fig. 2 plays an mp4 *pre-loaded on the sdcard* — pure
//! decode, no network (`DeviceSim::play_video`). This module adds the
//! natural extension: **adaptive streaming** (YouTube-like), where the
//! player fetches segments over the network while decoding, with a
//! buffer-driven duty cycle — the radio wakes for each segment and sleeps
//! between, which is what makes streaming measurably dearer than local
//! playback.

use batterylab_device::AndroidDevice;
use batterylab_net::Direction;
use batterylab_sim::{SimDuration, SimTime};
use serde::Serialize;

/// Streaming session parameters.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct StreamProfile {
    /// Media bitrate, bits per second (e.g. 2.5 Mbps for 720p H.264).
    pub bitrate_bps: f64,
    /// Segment duration (DASH/HLS standard: ~4 s).
    pub segment: SimDuration,
    /// Player buffer target, seconds of media.
    pub buffer_target_s: f64,
}

impl Default for StreamProfile {
    fn default() -> Self {
        StreamProfile {
            bitrate_bps: 2_500_000.0,
            segment: SimDuration::from_secs(4),
            buffer_target_s: 12.0,
        }
    }
}

/// Outcome of a streaming session.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct StreamStats {
    /// Media seconds played.
    pub played_s: f64,
    /// Bytes fetched.
    pub bytes: u64,
    /// Segments fetched.
    pub segments: u32,
    /// Rebuffering events (fetch slower than playback).
    pub stalls: u32,
    /// Session window on the device clock.
    pub window: (SimTime, SimTime),
}

/// Stream `duration` of video on `device` under `profile`.
///
/// The loop mirrors a real player: prefetch to the buffer target, then
/// per played segment fetch the next one; if the network can't keep up,
/// the player stalls (radio stays hot, screen waits).
pub fn stream_video(
    device: &AndroidDevice,
    duration: SimDuration,
    profile: StreamProfile,
) -> StreamStats {
    let start = device.with_sim(|s| s.now());
    let segment_bytes = (profile.bitrate_bps * profile.segment.as_secs_f64() / 8.0) as u64;
    let total_segments = (duration.as_secs_f64() / profile.segment.as_secs_f64()).ceil() as u32;
    let prefetch = (profile.buffer_target_s / profile.segment.as_secs_f64()).ceil() as u32;

    let mut fetched = 0u32;
    let mut bytes = 0u64;
    let mut stalls = 0u32;

    device.with_sim(|s| s.set_screen(true));

    // Prefetch phase: fill the buffer (spinner on screen).
    for _ in 0..prefetch.min(total_segments) {
        device.with_sim(|s| s.transfer(segment_bytes, Direction::Down, 0.12));
        fetched += 1;
        bytes += segment_bytes;
    }

    // Steady state: fetch one segment per segment played. A fetch slower
    // than the segment duration means the buffer is draining — on a real
    // player that is a (pending) rebuffer; here the fetch and the decode
    // serialise on the virtual clock, so the wall time stretches and we
    // count the stall directly.
    let mut played = 0u32;
    while played < total_segments {
        if fetched < total_segments {
            let t = device.with_sim(|s| s.transfer(segment_bytes, Direction::Down, 0.10));
            fetched += 1;
            bytes += segment_bytes;
            if t.duration > profile.segment {
                stalls += 1;
            }
        }
        device.with_sim(|s| s.play_video(profile.segment));
        played += 1;
    }

    let end = device.with_sim(|s| s.now());
    StreamStats {
        played_s: played as f64 * profile.segment.as_secs_f64(),
        bytes,
        segments: fetched,
        stalls,
        window: (start, end),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batterylab_device::boot_j7_duo;
    use batterylab_net::LinkProfile;
    use batterylab_sim::SimRng;

    fn device(seed: u64) -> AndroidDevice {
        boot_j7_duo(&SimRng::new(seed), "stream-dev")
    }

    #[test]
    fn streams_the_requested_duration() {
        let d = device(1);
        let stats = stream_video(&d, SimDuration::from_secs(60), StreamProfile::default());
        assert!((stats.played_s - 60.0).abs() < 4.0);
        // 2.5 Mbps × 60 s = 18.75 MB give or take a segment.
        let expected = 2_500_000.0 * 60.0 / 8.0;
        assert!(
            (stats.bytes as f64 - expected).abs() < expected * 0.15,
            "{}",
            stats.bytes
        );
        assert_eq!(stats.stalls, 0, "fast WiFi never stalls");
    }

    #[test]
    fn streaming_costs_more_than_local_playback() {
        let d_local = device(2);
        d_local.with_sim(|s| {
            s.set_screen(true);
            s.play_video(SimDuration::from_secs(60));
        });
        let local_ma = d_local.with_sim(|s| {
            let end = s.now();
            s.current_trace().mean(SimTime::ZERO, end)
        });

        let d_stream = device(2);
        // A typical home link: the radio stays up ~2.5 s per 4 s segment.
        d_stream.with_sim(|s| s.set_network(LinkProfile::new(12.0, 5.0, 25.0, 0.0)));
        stream_video(
            &d_stream,
            SimDuration::from_secs(60),
            StreamProfile::default(),
        );
        let stream_ma = d_stream.with_sim(|s| {
            let end = s.now();
            s.current_trace().mean(SimTime::ZERO, end)
        });
        assert!(
            stream_ma > local_ma + 8.0,
            "radio duty cycle must show: stream {stream_ma} vs local {local_ma}"
        );
    }

    #[test]
    fn slow_network_stalls_playback() {
        let d = device(3);
        // 1.5 Mbps link cannot feed a 2.5 Mbps stream.
        d.with_sim(|s| s.set_network(LinkProfile::new(1.5, 1.0, 80.0, 0.0)));
        let stats = stream_video(&d, SimDuration::from_secs(40), StreamProfile::default());
        assert!(stats.stalls > 0, "under-provisioned link must stall");
        // Wall time exceeds media time.
        let wall = (stats.window.1 - stats.window.0).as_secs_f64();
        assert!(
            wall > stats.played_s * 1.2,
            "wall {wall} vs played {}",
            stats.played_s
        );
    }

    #[test]
    fn higher_bitrate_fetches_more() {
        let hd = stream_video(
            &device(4),
            SimDuration::from_secs(30),
            StreamProfile {
                bitrate_bps: 5_000_000.0,
                ..Default::default()
            },
        );
        let sd = stream_video(
            &device(4),
            SimDuration::from_secs(30),
            StreamProfile {
                bitrate_bps: 1_000_000.0,
                ..Default::default()
            },
        );
        assert!(hd.bytes > sd.bytes * 4);
    }
}
