//! The Android face of the simulated device: package manager, input
//! subsystem, system services (`dumpsys`), logcat — and the glue that
//! makes a [`DeviceSim`] usable as an ADB [`DeviceServices`] backend and
//! as a [`CurrentSource`] for the Monsoon.

use std::sync::Arc;

use batterylab_adb::DeviceServices;
use batterylab_power::{step_signal_segments, CurrentSource, Segment};
use batterylab_sim::{SimDuration, SimRng, SimTime};
use parking_lot::Mutex;

use crate::sim::DeviceSim;
use crate::state::DeviceSpec;

/// Fraction of the true load the meter still sees when USB bus power is
/// attached: the device preferentially draws from USB, so readings
/// collapse — the §3.3 interference that forbids ADB-over-USB during
/// measurements.
const USB_MEASUREMENT_CORRUPTION: f64 = 0.12;

/// Most words any shell command but `echo` takes (`input swipe` has 7).
const MAX_WORDS: usize = 8;

struct Inner {
    sim: DeviceSim,
    packages: Vec<String>,
    foreground: Option<String>,
    trusted_keys: Vec<String>,
    accept_new_keys: bool,
    serial: String,
}

/// A shareable handle to one simulated Android device.
///
/// Clones share state; the controller hands one clone to adbd, one to the
/// relay channel, one to the mirroring stack.
#[derive(Clone)]
pub struct AndroidDevice {
    inner: Arc<Mutex<Inner>>,
}

impl AndroidDevice {
    /// Boot a device from `spec`. `serial` is its ADB id
    /// (e.g. `"52003a6f1234"`); keys offered over ADB are accepted iff
    /// `accept_new_keys` (vantage-point enrolment pre-accepts, §3.4).
    pub fn new(spec: DeviceSpec, serial: &str, rng: SimRng, accept_new_keys: bool) -> Self {
        AndroidDevice {
            inner: Arc::new(Mutex::new(Inner {
                sim: DeviceSim::new(spec, rng),
                packages: vec![
                    "com.android.settings".to_string(),
                    "com.android.systemui".to_string(),
                ],
                foreground: None,
                trusted_keys: Vec::new(),
                accept_new_keys,
                serial: serial.to_string(),
            })),
        }
    }

    /// Boot a device with an explicit power model (heterogeneous fleets).
    pub fn new_with_model(
        spec: DeviceSpec,
        model: crate::power_model::PowerModel,
        serial: &str,
        rng: SimRng,
        accept_new_keys: bool,
    ) -> Self {
        let device = AndroidDevice::new(spec, serial, rng, accept_new_keys);
        {
            let mut inner = device.inner.lock();
            let sim = std::mem::replace(
                &mut inner.sim,
                DeviceSim::new(DeviceSpec::samsung_j7_duo(), SimRng::new(0)),
            );
            inner.sim = sim.with_power_model(model);
        }
        device
    }

    /// The ADB serial.
    pub fn serial(&self) -> String {
        self.inner.lock().serial.clone()
    }

    /// Run `f` with the underlying simulator.
    pub fn with_sim<R>(&self, f: impl FnOnce(&mut DeviceSim) -> R) -> R {
        f(&mut self.inner.lock().sim)
    }

    /// Static spec snapshot.
    pub fn spec(&self) -> DeviceSpec {
        self.inner.lock().sim.spec().clone()
    }

    /// Install a package (the workload setup installs the four browsers).
    pub fn install_package(&self, package: &str) {
        let mut inner = self.inner.lock();
        if !inner.packages.iter().any(|p| p == package) {
            inner.packages.push(package.to_string());
        }
    }

    /// Currently foregrounded package.
    pub fn foreground(&self) -> Option<String> {
        self.inner.lock().foreground.clone()
    }

    /// Factory reset (one of the access server's maintenance jobs):
    /// clears third-party packages, logs, trust store.
    pub fn factory_reset(&self) {
        let mut inner = self.inner.lock();
        inner.packages.retain(|p| p.starts_with("com.android."));
        inner.foreground = None;
        inner.trusted_keys.clear();
        inner.sim.logcat_clear();
    }
}

impl Inner {
    fn launch(&mut self, package: &str) -> Result<Vec<u8>, String> {
        if !self.packages.iter().any(|p| p == package) {
            return Err(format!(
                "Error: Activity not started, unknown package {package}"
            ));
        }
        self.foreground = Some(package.to_string());
        self.sim.set_screen(true);
        // Cold-start cost: process spawn + first draw.
        self.sim
            .run_activity(SimDuration::from_millis(1200), 0.45, 0.7);
        self.sim
            .log("ActivityManager", &format!("Displayed {package}"));
        Ok(format!("Starting: Intent {{ cmp={package} }}\n").into_bytes())
    }
}

impl CurrentSource for AndroidDevice {
    fn current_ma(&self, t: SimTime, supply_v: f64) -> f64 {
        let inner = self.inner.lock();
        let nominal = inner.sim.nominal_v();
        let ma = inner.sim.current_trace().at(t) * nominal / supply_v.max(1e-6);
        if inner.sim.state().usb_connected {
            // Bus power steals the load from the measured path.
            ma * USB_MEASUREMENT_CORRUPTION
        } else {
            ma
        }
    }

    fn segments(&self, from: SimTime, to: SimTime, supply_v: f64) -> Option<Vec<Segment>> {
        // The device's draw IS a piecewise-constant trace (the simulator
        // builds it segment by segment), so the meter can batch over it.
        let inner = self.inner.lock();
        let nominal = inner.sim.nominal_v();
        let usb_connected = inner.sim.state().usb_connected;
        Some(step_signal_segments(
            inner.sim.current_trace(),
            from,
            to,
            |step| {
                let ma = step * nominal / supply_v.max(1e-6);
                if usb_connected {
                    ma * USB_MEASUREMENT_CORRUPTION
                } else {
                    ma
                }
            },
        ))
    }
}

impl DeviceServices for AndroidDevice {
    fn identity(&self) -> String {
        let inner = self.inner.lock();
        let spec = inner.sim.spec();
        format!(
            "device::ro.product.name={};ro.product.model={};ro.build.version.sdk={};features=cmd,shell_v2",
            spec.product, spec.model, spec.api_level
        )
    }

    fn is_key_trusted(&self, fingerprint: &str) -> bool {
        self.inner
            .lock()
            .trusted_keys
            .iter()
            .any(|f| f == fingerprint)
    }

    fn offer_key(&mut self, fingerprint: &str) -> bool {
        let mut inner = self.inner.lock();
        if inner.accept_new_keys {
            inner.trusted_keys.push(fingerprint.to_string());
            true
        } else {
            false
        }
    }

    fn is_rooted(&self) -> bool {
        self.inner.lock().sim.spec().rooted
    }

    fn exec(&mut self, service: &str) -> Result<Vec<u8>, String> {
        let Some(cmd) = service.strip_prefix("shell:") else {
            return Err(format!("unknown service: {service}"));
        };
        // The words of `cmd`, parsed in place: no command but `echo`
        // takes more than `MAX_WORDS`, and `echo` rereads `cmd`.
        let mut words = [""; MAX_WORDS];
        let mut count = 0;
        let mut rest = cmd.split_whitespace();
        for (slot, word) in words.iter_mut().zip(rest.by_ref()) {
            *slot = word;
            count += 1;
        }
        let args = if rest.next().is_some() && words[0] != "echo" {
            &[][..]
        } else {
            &words[..count]
        };
        let mut inner = self.inner.lock();
        match args {
            ["echo", ..] => {
                let rest: Vec<&str> = cmd.split_whitespace().skip(1).collect();
                Ok(format!("{}\n", rest.join(" ")).into_bytes())
            }

            ["input", "tap", _x, _y] => {
                inner
                    .sim
                    .run_activity(SimDuration::from_millis(90), 0.12, 0.12);
                Ok(Vec::new())
            }
            ["input", "swipe", _x1, _y1, _x2, _y2, ms] => {
                let ms: u64 = ms.parse().map_err(|_| "bad swipe duration".to_string())?;
                // The swipe plus the fling animation it triggers.
                inner
                    .sim
                    .run_activity(SimDuration::from_millis(ms + 450), 0.20, 0.55);
                Ok(Vec::new())
            }
            ["input", "text", text] => {
                // Soft-keyboard text injection: cost scales with length.
                let ms = 40 + 18 * text.len() as u64;
                inner
                    .sim
                    .run_activity(SimDuration::from_millis(ms), 0.14, 0.18);
                Ok(Vec::new())
            }
            ["input", "keyevent", _code] => {
                inner
                    .sim
                    .run_activity(SimDuration::from_millis(70), 0.10, 0.10);
                Ok(Vec::new())
            }

            ["am", "start", "-n", component] => {
                inner.launch(component.split('/').next().unwrap_or(component))
            }
            ["am", "force-stop", package] => {
                if inner.foreground.as_deref() == Some(*package) {
                    inner.foreground = None;
                }
                inner
                    .sim
                    .run_activity(SimDuration::from_millis(200), 0.15, 0.05);
                Ok(Vec::new())
            }
            ["pm", "clear", package] => {
                if inner.packages.iter().any(|p| p == package) {
                    inner
                        .sim
                        .run_activity(SimDuration::from_millis(700), 0.25, 0.02);
                    Ok(b"Success\n".to_vec())
                } else {
                    Err(format!("Failed: package {package} not found"))
                }
            }
            ["pm", "list", "packages"] => {
                let list: String = inner
                    .packages
                    .iter()
                    .map(|p| format!("package:{p}\n"))
                    .collect();
                Ok(list.into_bytes())
            }

            ["dumpsys", "battery"] => {
                let b = inner.sim.battery();
                Ok(format!(
                    "Current Battery Service state:\n  level: {}\n  scale: 100\n  voltage: {:.0}\n  temperature: 270\n  charge counter: {:.0}\n",
                    b.level_percent(),
                    b.terminal_voltage(inner.sim.current_trace().last()) * 1000.0,
                    b.charge_mah() * 1000.0,
                )
                .into_bytes())
            }
            ["dumpsys", "cpuinfo"] => {
                let util = inner.sim.cpu_trace().last() * 100.0;
                Ok(format!("Load: {util:.1}% TOTAL (user + kernel)\n").into_bytes())
            }
            ["dumpsys", "meminfo"] => Ok(b"Total RAM: 3,072,000K\nFree RAM: 1,412,000K\n".to_vec()),
            ["dumpsys", other] => Err(format!("Can't find service: {other}")),

            ["getprop", "ro.build.version.sdk"] => {
                Ok(format!("{}\n", inner.sim.spec().api_level).into_bytes())
            }
            ["getprop", "ro.product.model"] => {
                Ok(format!("{}\n", inner.sim.spec().model).into_bytes())
            }

            ["logcat", "-d"] => Ok(inner.sim.logcat_dump().into_bytes()),
            ["logcat", "-c"] => {
                inner.sim.logcat_clear();
                Ok(Vec::new())
            }

            ["sleep", secs] => {
                let s: f64 = secs.parse().map_err(|_| "bad sleep".to_string())?;
                inner.sim.idle(SimDuration::from_secs_f64(s));
                Ok(Vec::new())
            }

            ["wm", "size"] => Ok(b"Physical size: 1080x2220\n".to_vec()),

            ["screencap", "-p"] | ["screencap"] => {
                // A screenshot: PNG magic + a deterministic body whose size
                // tracks the panel. Costs a SurfaceFlinger round trip.
                inner
                    .sim
                    .run_activity(SimDuration::from_millis(350), 0.18, 0.02);
                let mut png = vec![0x89, b'P', b'N', b'G', 0x0d, 0x0a, 0x1a, 0x0a];
                png.resize(64 * 1024, 0x5a);
                Ok(png)
            }
            ["uptime"] => Ok(format!(
                "up time: {:.0}s, idle time: n/a, sleep time: n/a\n",
                inner.sim.now().as_secs_f64()
            )
            .into_bytes()),
            ["top", "-n", "1"] => {
                let util = inner.sim.cpu_trace().last() * 100.0;
                let fg = inner.foreground.clone().unwrap_or_else(|| "idle".into());
                Ok(format!(
                    "Tasks: 214 total\n%cpu {util:.0} user\n  PID USER  %CPU NAME\n 1234 u0_a1 {util:.0} {fg}\n"
                )
                .into_bytes())
            }
            ["ls", "/sdcard"] => Ok(b"DCIM\nDownload\nMovies\ntest.mp4\n".to_vec()),

            ["settings", "put", "system", "screen_brightness", v] => {
                let pct: u8 = v.parse().map_err(|_| "bad brightness".to_string())?;
                inner.sim.set_brightness(pct);
                Ok(Vec::new())
            }

            _ => Err(format!("/system/bin/sh: {cmd}: not found")),
        }
    }
}

/// Convenience: boot the paper's J7 Duo with a derived RNG stream.
pub fn boot_j7_duo(seed_rng: &SimRng, serial: &str) -> AndroidDevice {
    AndroidDevice::new(
        DeviceSpec::samsung_j7_duo(),
        serial,
        seed_rng.derive(&format!("device/{serial}")),
        true,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> AndroidDevice {
        boot_j7_duo(&SimRng::new(1), "52003a6f1234")
    }

    #[test]
    fn identity_banner_has_product_fields() {
        let d = dev();
        let banner = d.identity();
        assert!(banner.starts_with("device::"));
        assert!(banner.contains("ro.product.name=j7duolte"));
        assert!(banner.contains("ro.build.version.sdk=26"));
    }

    #[test]
    fn shell_echo() {
        let mut d = dev();
        let out = d.exec("shell:echo hello world").unwrap();
        assert_eq!(out, b"hello world\n");
        assert_eq!(d.exec("shell:echo").unwrap(), b"\n");
        // Longer than any other command, and spacing collapses.
        let out = d.exec("shell:echo  a b c d e f g h i j").unwrap();
        assert_eq!(out, b"a b c d e f g h i j\n");
    }

    #[test]
    fn overlong_commands_are_not_found() {
        let mut d = dev();
        let err = d.exec("shell:input swipe 1 2 3 4 5 6 7 8").unwrap_err();
        assert!(err.contains("not found"), "{err}");
    }

    #[test]
    fn launch_requires_installed_package() {
        let mut d = dev();
        let err = d
            .exec("shell:am start -n com.brave.browser/.Main")
            .unwrap_err();
        assert!(err.contains("unknown package"));
        d.install_package("com.brave.browser");
        let out = d.exec("shell:am start -n com.brave.browser/.Main").unwrap();
        assert!(String::from_utf8_lossy(&out).contains("com.brave.browser"));
        assert_eq!(d.foreground().as_deref(), Some("com.brave.browser"));
    }

    #[test]
    fn force_stop_clears_foreground() {
        let mut d = dev();
        d.install_package("org.mozilla.firefox");
        d.exec("shell:am start -n org.mozilla.firefox/.App")
            .unwrap();
        d.exec("shell:am force-stop org.mozilla.firefox").unwrap();
        assert_eq!(d.foreground(), None);
    }

    #[test]
    fn pm_clear_only_known_packages() {
        let mut d = dev();
        assert!(d.exec("shell:pm clear com.missing").is_err());
        d.install_package("com.android.chrome");
        assert_eq!(
            d.exec("shell:pm clear com.android.chrome").unwrap(),
            b"Success\n"
        );
    }

    #[test]
    fn input_commands_advance_time_and_cpu() {
        let mut d = dev();
        let t0 = d.with_sim(|s| s.now());
        d.exec("shell:input swipe 500 1500 500 300 300").unwrap();
        let t1 = d.with_sim(|s| s.now());
        assert!(t1 > t0, "swipe must consume virtual time");
    }

    #[test]
    fn dumpsys_battery_reports_level() {
        let mut d = dev();
        let out = String::from_utf8(d.exec("shell:dumpsys battery").unwrap()).unwrap();
        assert!(out.contains("level: 100"));
    }

    #[test]
    fn usb_power_corrupts_meter_reading() {
        let d = dev();
        d.with_sim(|s| {
            s.set_screen(true);
            s.run_activity(SimDuration::from_secs(5), 0.3, 0.5);
        });
        let t = d.with_sim(|s| s.now() - SimDuration::from_secs(1));
        let clean = d.current_ma(t, 4.0);
        d.with_sim(|s| s.set_usb_connected(true));
        let corrupted = d.current_ma(t, 4.0);
        assert!(
            corrupted < clean * 0.2,
            "USB power must corrupt readings: {corrupted} vs {clean}"
        );
    }

    #[test]
    fn factory_reset_clears_third_party_state() {
        let mut d = dev();
        d.install_package("com.brave.browser");
        d.offer_key("aa:bb");
        assert!(d.is_key_trusted("aa:bb"));
        d.factory_reset();
        assert!(!d.is_key_trusted("aa:bb"));
        let out = String::from_utf8(d.exec("shell:pm list packages").unwrap()).unwrap();
        assert!(!out.contains("brave"));
        assert!(out.contains("com.android.settings"));
    }

    #[test]
    fn unknown_command_is_shell_error() {
        let mut d = dev();
        let err = d.exec("shell:frobnicate").unwrap_err();
        assert!(err.contains("not found"));
    }

    #[test]
    fn brightness_setting_applies() {
        let mut d = dev();
        d.exec("shell:settings put system screen_brightness 80")
            .unwrap();
        assert_eq!(d.with_sim(|s| s.state().brightness), 80);
    }

    #[test]
    fn sleep_advances_clock() {
        let mut d = dev();
        let t0 = d.with_sim(|s| s.now());
        d.exec("shell:sleep 2").unwrap();
        assert_eq!(d.with_sim(|s| s.now()) - t0, SimDuration::from_secs(2));
    }
}

#[cfg(test)]
mod shell_extras_tests {
    use super::*;
    use batterylab_adb::DeviceServices;

    #[test]
    fn screencap_returns_png() {
        let mut d = boot_j7_duo(&SimRng::new(55), "cap-dev");
        let png = d.exec("shell:screencap -p").unwrap();
        assert_eq!(&png[..4], &[0x89, b'P', b'N', b'G']);
        assert!(png.len() > 10_000);
    }

    #[test]
    fn uptime_reports_virtual_clock() {
        let mut d = boot_j7_duo(&SimRng::new(56), "up-dev");
        d.exec("shell:sleep 30").unwrap();
        let out = String::from_utf8(d.exec("shell:uptime").unwrap()).unwrap();
        assert!(out.contains("up time: 30s"), "{out}");
    }

    #[test]
    fn top_shows_foreground_app() {
        let mut d = boot_j7_duo(&SimRng::new(57), "top-dev");
        d.install_package("com.brave.browser");
        d.exec("shell:am start -n com.brave.browser/.Main").unwrap();
        let out = String::from_utf8(d.exec("shell:top -n 1").unwrap()).unwrap();
        assert!(out.contains("com.brave.browser"), "{out}");
    }

    #[test]
    fn sdcard_has_the_fig2_video() {
        let mut d = boot_j7_duo(&SimRng::new(58), "sd-dev");
        let out = String::from_utf8(d.exec("shell:ls /sdcard").unwrap()).unwrap();
        assert!(
            out.contains("test.mp4"),
            "the pre-loaded mp4 of §4.1: {out}"
        );
    }
}
