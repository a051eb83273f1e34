//! Automation backends (§3.3): three ways to drive a test device, each
//! with the paper's stated advantages and limitations encoded as checks.
//!
//! | backend | OSes | channel | limitation |
//! |---|---|---|---|
//! | ADB | Android | USB / WiFi / Bluetooth | USB powers the device; WiFi occupies the network under test; BT needs root |
//! | UI tests | Android & iOS | none (runs on-device) | needs the app's source (a test APK) |
//! | BT keyboard | Android & iOS | Bluetooth HID | no mirroring; key-level granularity only |

use batterylab_adb::{AdbKey, AdbLink, HostError, TransportKind};
use batterylab_device::{AndroidDevice, DataPath, IosDevice, KeyTarget};
use batterylab_sim::SimDuration;

use crate::hid::HidKeyboard;
use crate::script::{Action, Script, ScrollDir};

/// Which §3.3 mechanism a backend implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// ADB over the given transport.
    Adb(TransportKind),
    /// On-device UI test (instrumented APK).
    UiTest,
    /// Bluetooth HID keyboard.
    BluetoothKeyboard,
}

/// Automation failures.
#[derive(Clone, Debug, PartialEq)]
pub enum AutomationError {
    /// ADB layer failed.
    Adb(HostError),
    /// A §3.3 constraint was violated (explanatory message).
    Constraint(String),
    /// The backend cannot express this action.
    Unsupported {
        /// Backend that refused.
        backend: &'static str,
        /// Human description of the action.
        action: String,
    },
    /// App/package problem.
    App(String),
}

impl From<HostError> for AutomationError {
    fn from(e: HostError) -> Self {
        AutomationError::Adb(e)
    }
}

impl std::fmt::Display for AutomationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AutomationError::Adb(e) => write!(f, "adb: {e}"),
            AutomationError::Constraint(m) => write!(f, "constraint: {m}"),
            AutomationError::Unsupported { backend, action } => {
                write!(f, "{backend} cannot perform {action}")
            }
            AutomationError::App(m) => write!(f, "app: {m}"),
        }
    }
}

impl std::error::Error for AutomationError {}

/// A mechanism that can drive a device.
pub trait AutomationBackend {
    /// Short name for logs.
    fn name(&self) -> &'static str;

    /// Which §3.3 mechanism this is.
    fn kind(&self) -> BackendKind;

    /// Whether running this backend during a battery measurement leaves
    /// the reading clean (ADB-over-USB does not).
    fn measurement_safe(&self) -> bool;

    /// Whether device mirroring can run alongside (needs ADB).
    fn supports_mirroring(&self) -> bool;

    /// Perform one action.
    fn perform(&mut self, action: &Action) -> Result<(), AutomationError>;

    /// Run a whole script, stopping at the first error.
    fn run_script(&mut self, script: &Script) -> Result<(), AutomationError> {
        for action in &script.actions {
            self.perform(action)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// ADB backend
// ---------------------------------------------------------------------------

/// ADB-based automation over a chosen transport.
pub struct AdbBackend {
    link: AdbLink<AndroidDevice>,
    device: AndroidDevice,
    kind: TransportKind,
}

impl AdbBackend {
    /// Connect an ADB automation channel to `device` over `transport`.
    ///
    /// Enforces §3.3: Bluetooth ADB requires a rooted device; WiFi ADB
    /// conflicts with cellular-network experiments.
    ///
    /// Like the real pipeline, the channel clears the device log
    /// (`logcat -c`) as it opens, so a later `logcat -d` returns only the
    /// lines of the job that opened it.
    pub fn connect(
        device: AndroidDevice,
        transport: TransportKind,
        key: AdbKey,
    ) -> Result<Self, AutomationError> {
        if transport == TransportKind::Bluetooth && !device.spec().rooted {
            return Err(AutomationError::Constraint(
                "ADB-over-Bluetooth requires a rooted device".to_string(),
            ));
        }
        if transport == TransportKind::WiFi
            && device.with_sim(|s| s.data_path()) == DataPath::Cellular
        {
            return Err(AutomationError::Constraint(
                "ADB-over-WiFi cannot drive an experiment on the mobile network".to_string(),
            ));
        }
        if transport == TransportKind::Usb {
            device.with_sim(|s| s.set_usb_connected(true));
        }
        let mut link = AdbLink::new(device.clone(), transport, key);
        link.connect()?;
        link.shell("logcat -c")?;
        Ok(AdbBackend {
            link,
            device,
            kind: transport,
        })
    }

    /// The underlying ADB link (log collection etc.).
    pub fn link_mut(&mut self) -> &mut AdbLink<AndroidDevice> {
        &mut self.link
    }

    /// Detach, powering down the USB port if used (uhubctl on the
    /// controller does this before a measurement).
    pub fn detach(self) {
        if self.kind == TransportKind::Usb {
            self.device.with_sim(|s| s.set_usb_connected(false));
        }
        self.link.disconnect_transport();
    }
}

impl AutomationBackend for AdbBackend {
    fn name(&self) -> &'static str {
        match self.kind {
            TransportKind::Usb => "adb-usb",
            TransportKind::WiFi => "adb-wifi",
            TransportKind::Bluetooth => "adb-bt",
        }
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Adb(self.kind)
    }

    fn measurement_safe(&self) -> bool {
        !self.kind.powers_device()
    }

    fn supports_mirroring(&self) -> bool {
        true
    }

    fn perform(&mut self, action: &Action) -> Result<(), AutomationError> {
        match action {
            Action::LaunchApp(pkg) => {
                self.link.start_activity(&format!("{pkg}/.Main"))?;
            }
            Action::ForceStop(pkg) => self.link.force_stop(pkg)?,
            Action::ClearAppData(pkg) => self.link.pm_clear(pkg)?,
            Action::EnterUrl(url) => {
                // Tap the address bar, type, submit — scripted exactly as
                // the bash automation in §4.2 does.
                self.link.input_tap(540, 180)?;
                self.link.shell(&format!("input text {url}"))?;
                self.link.input_keyevent(66)?; // KEYCODE_ENTER
            }
            Action::Scroll(dir) => {
                let (y1, y2) = match dir {
                    ScrollDir::Down => (1600, 400),
                    ScrollDir::Up => (400, 1600),
                };
                self.link.input_swipe(540, y1, 540, y2, 250)?;
            }
            Action::KeyEvent(code) => self.link.input_keyevent(*code)?,
            Action::Wait(d) => {
                self.device.with_sim(|s| s.idle(*d));
            }
            Action::Note(msg) => {
                self.device.with_sim(|s| s.log("BatteryLab", msg));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// UI-test backend
// ---------------------------------------------------------------------------

/// On-device UI testing (Android instrumentation / XCTest): no channel to
/// the controller at all, but only works for apps whose source the
/// experimenter controls (they must build the test APK).
pub struct UiTestBackend {
    device: AndroidDevice,
    package: String,
}

impl UiTestBackend {
    /// Install the instrumented build of `package` and bind to it.
    /// `has_test_apk` models source access.
    pub fn install(
        device: AndroidDevice,
        package: &str,
        has_test_apk: bool,
    ) -> Result<Self, AutomationError> {
        if !has_test_apk {
            return Err(AutomationError::Constraint(format!(
                "UI testing requires source access to build a test APK for {package}"
            )));
        }
        device.install_package(package);
        device.install_package(&format!("{package}.test"));
        Ok(UiTestBackend {
            device,
            package: package.to_string(),
        })
    }
}

impl AutomationBackend for UiTestBackend {
    fn name(&self) -> &'static str {
        "ui-test"
    }

    fn kind(&self) -> BackendKind {
        BackendKind::UiTest
    }

    fn measurement_safe(&self) -> bool {
        true // no external channel at all
    }

    fn supports_mirroring(&self) -> bool {
        false // nothing established ADB
    }

    fn perform(&mut self, action: &Action) -> Result<(), AutomationError> {
        // Instrumentation drives the app directly on-device.
        match action {
            Action::LaunchApp(pkg) | Action::ForceStop(pkg) | Action::ClearAppData(pkg)
                if pkg != &self.package =>
            {
                return Err(AutomationError::Unsupported {
                    backend: "ui-test",
                    action: format!("action on foreign package {pkg}"),
                });
            }
            _ => {}
        }
        self.device.with_sim(|s| match action {
            Action::LaunchApp(_) => {
                s.set_screen(true);
                s.run_activity(SimDuration::from_millis(1200), 0.45, 0.7);
            }
            Action::ForceStop(_) => s.run_activity(SimDuration::from_millis(200), 0.15, 0.05),
            Action::ClearAppData(_) => s.run_activity(SimDuration::from_millis(700), 0.25, 0.02),
            Action::EnterUrl(_) => s.run_activity(SimDuration::from_millis(900), 0.2, 0.3),
            Action::Scroll(_) => s.run_activity(SimDuration::from_millis(700), 0.20, 0.55),
            Action::KeyEvent(_) => s.run_activity(SimDuration::from_millis(70), 0.1, 0.1),
            Action::Wait(d) => s.idle(*d),
            Action::Note(m) => s.log("UiTest", m),
        });
        if let Action::LaunchApp(pkg) = action {
            // Reflect foreground state through the package manager.
            let _ = pkg;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Bluetooth keyboard backend
// ---------------------------------------------------------------------------

/// The controller emulates a Bluetooth HID keyboard (§3.3): generic
/// across OSes (Android *and* iOS — the type parameter is the point), no
/// root, cellular-compatible — but no mirroring (that needs ADB) and only
/// key-level control.
pub struct BluetoothKeyboardBackend<T: KeyTarget = AndroidDevice> {
    keyboard: HidKeyboard<T>,
    device: T,
}

impl<T: KeyTarget> BluetoothKeyboardBackend<T> {
    /// Pair the controller's virtual keyboard with `device`.
    pub fn pair(device: T) -> Self {
        device.with_device_sim(|s| s.set_bluetooth_active(true));
        BluetoothKeyboardBackend {
            keyboard: HidKeyboard::new(device.clone()),
            device,
        }
    }

    /// The HID layer (diagnostics).
    pub fn keyboard(&self) -> &HidKeyboard<T> {
        &self.keyboard
    }
}

impl<T: KeyTarget> AutomationBackend for BluetoothKeyboardBackend<T> {
    fn name(&self) -> &'static str {
        "bt-keyboard"
    }

    fn kind(&self) -> BackendKind {
        BackendKind::BluetoothKeyboard
    }

    fn measurement_safe(&self) -> bool {
        true
    }

    fn supports_mirroring(&self) -> bool {
        false // §3.3: mirroring needs ADB
    }

    fn perform(&mut self, action: &Action) -> Result<(), AutomationError> {
        match action {
            Action::LaunchApp(pkg) => self.keyboard.launch_via_search(pkg),
            Action::ForceStop(_) | Action::ClearAppData(_) => Err(AutomationError::Unsupported {
                backend: "bt-keyboard",
                action: "package management (use ADB over USB outside the measurement, §3.3)"
                    .to_string(),
            }),
            Action::EnterUrl(url) => {
                // Focus the omnibox with a shortcut, then type.
                self.keyboard.send_chord(&["ctrl", "l"])?;
                self.keyboard.type_text(url)?;
                self.keyboard.send_key("enter")
            }
            Action::Scroll(dir) => {
                let key = match dir {
                    ScrollDir::Down => "pagedown",
                    ScrollDir::Up => "pageup",
                };
                self.keyboard.send_key(key)
            }
            Action::KeyEvent(code) => self.keyboard.send_raw(*code),
            Action::Wait(d) => {
                self.device.with_device_sim(|s| s.idle(*d));
                Ok(())
            }
            Action::Note(m) => {
                self.device.with_device_sim(|s| s.log("BtKeyboard", m));
                Ok(())
            }
        }
    }
}

// ---------------------------------------------------------------------------
// XCTest backend (iOS)
// ---------------------------------------------------------------------------

/// Apple's XCTest UI automation (§3.3's "UI Testing" column for iOS):
/// runs on-device, needs the app's source to build the test bundle, and
/// — like its Android counterpart — has no channel to the controller.
pub struct XcTestBackend {
    device: IosDevice,
    bundle_id: String,
}

impl XcTestBackend {
    /// Install the UI-test runner for `bundle_id`.
    pub fn install(
        device: IosDevice,
        bundle_id: &str,
        has_source: bool,
    ) -> Result<Self, AutomationError> {
        if !has_source {
            return Err(AutomationError::Constraint(format!(
                "XCTest requires the app's Xcode project for {bundle_id}"
            )));
        }
        device.install_app(bundle_id);
        device.install_app(&format!("{bundle_id}.xctrunner"));
        Ok(XcTestBackend {
            device,
            bundle_id: bundle_id.to_string(),
        })
    }
}

impl AutomationBackend for XcTestBackend {
    fn name(&self) -> &'static str {
        "xctest"
    }

    fn kind(&self) -> BackendKind {
        BackendKind::UiTest
    }

    fn measurement_safe(&self) -> bool {
        true
    }

    fn supports_mirroring(&self) -> bool {
        false
    }

    fn perform(&mut self, action: &Action) -> Result<(), AutomationError> {
        match action {
            Action::LaunchApp(app) if app != &self.bundle_id => {
                return Err(AutomationError::Unsupported {
                    backend: "xctest",
                    action: format!("launching foreign bundle {app}"),
                });
            }
            Action::ForceStop(_) | Action::ClearAppData(_) => {
                // XCUIApplication can terminate/relaunch only its target.
            }
            _ => {}
        }
        self.device.with_sim(|s| match action {
            Action::LaunchApp(_) => {
                s.set_screen(true);
                s.run_activity(SimDuration::from_millis(1100), 0.42, 0.7);
            }
            Action::ForceStop(_) => s.run_activity(SimDuration::from_millis(180), 0.15, 0.05),
            Action::ClearAppData(_) => s.run_activity(SimDuration::from_millis(650), 0.25, 0.02),
            Action::EnterUrl(_) => s.run_activity(SimDuration::from_millis(900), 0.2, 0.3),
            Action::Scroll(_) => s.run_activity(SimDuration::from_millis(700), 0.20, 0.55),
            Action::KeyEvent(_) => s.run_activity(SimDuration::from_millis(70), 0.1, 0.1),
            Action::Wait(d) => s.idle(*d),
            Action::Note(m) => s.log("XCTest", m),
        });
        if let Action::LaunchApp(app) = action {
            self.device.launch_app(app).map_err(AutomationError::App)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batterylab_device::{boot_j7_duo, DeviceSpec};
    use batterylab_sim::SimRng;

    fn device() -> AndroidDevice {
        let d = boot_j7_duo(&SimRng::new(5), "auto-dev");
        d.install_package("com.brave.browser");
        d
    }

    fn key() -> AdbKey {
        AdbKey::generate("controller", 1)
    }

    #[test]
    fn adb_wifi_runs_browser_script() {
        let d = device();
        let mut b = AdbBackend::connect(d.clone(), TransportKind::WiFi, key()).unwrap();
        let script = Script::browser_workload("com.brave.browser", &["https://news.example"], 2);
        b.run_script(&script).unwrap();
        assert!(b.measurement_safe());
        assert!(b.supports_mirroring());
        assert_eq!(d.foreground(), None, "script force-stops at the end");
    }

    #[test]
    fn adb_connect_scopes_the_log_to_its_job() {
        let d = device();
        let script = Script::browser_workload("com.brave.browser", &["https://news.example"], 1);
        let mut first = AdbBackend::connect(d.clone(), TransportKind::WiFi, key()).unwrap();
        first.run_script(&script).unwrap();
        let mut second = AdbBackend::connect(d.clone(), TransportKind::WiFi, key()).unwrap();
        assert_eq!(second.link_mut().logcat().unwrap(), "", "connect clears");
        second.run_script(&script).unwrap();
        let log = second.link_mut().logcat().unwrap();
        assert_eq!(log.matches("Displayed com.brave.browser").count(), 1);
    }

    #[test]
    fn adb_usb_flags_measurement_unsafe() {
        let d = device();
        let b = AdbBackend::connect(d.clone(), TransportKind::Usb, key()).unwrap();
        assert!(!b.measurement_safe(), "USB powers the device");
        assert!(d.with_sim(|s| s.state().usb_connected));
        b.detach();
        assert!(!d.with_sim(|s| s.state().usb_connected));
    }

    #[test]
    fn adb_bt_requires_root() {
        let unrooted = device();
        let err = AdbBackend::connect(unrooted, TransportKind::Bluetooth, key())
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, AutomationError::Constraint(_)));
        let rooted = AndroidDevice::new(
            DeviceSpec::samsung_j7_duo().rooted(),
            "rooted-dev",
            SimRng::new(6).derive("d"),
            true,
        );
        assert!(AdbBackend::connect(rooted, TransportKind::Bluetooth, key()).is_ok());
    }

    #[test]
    fn adb_wifi_conflicts_with_cellular() {
        let d = device();
        d.with_sim(|s| s.set_data_path(DataPath::Cellular));
        let err = AdbBackend::connect(d, TransportKind::WiFi, key())
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, AutomationError::Constraint(_)));
    }

    #[test]
    fn ui_test_needs_source_access() {
        let d = device();
        assert!(matches!(
            UiTestBackend::install(d.clone(), "com.android.chrome", false),
            Err(AutomationError::Constraint(_))
        ));
        let mut b = UiTestBackend::install(d, "com.android.chrome", true).unwrap();
        assert!(b.measurement_safe());
        assert!(!b.supports_mirroring());
        b.perform(&Action::LaunchApp("com.android.chrome".into()))
            .unwrap();
    }

    #[test]
    fn ui_test_rejects_foreign_packages() {
        let d = device();
        let mut b = UiTestBackend::install(d, "com.android.chrome", true).unwrap();
        let err = b
            .perform(&Action::LaunchApp("org.other".into()))
            .unwrap_err();
        assert!(matches!(err, AutomationError::Unsupported { .. }));
    }

    #[test]
    fn bt_keyboard_works_on_cellular_without_root() {
        let d = device();
        d.with_sim(|s| s.set_data_path(DataPath::Cellular));
        let mut b = BluetoothKeyboardBackend::pair(d.clone());
        assert!(b.measurement_safe());
        assert!(!b.supports_mirroring(), "§3.3: no mirroring without ADB");
        b.perform(&Action::EnterUrl("https://news.example".into()))
            .unwrap();
        b.perform(&Action::Scroll(ScrollDir::Down)).unwrap();
        assert!(d.with_sim(|s| s.state().bluetooth_active));
    }

    #[test]
    fn bt_keyboard_cannot_manage_packages() {
        let d = device();
        let mut b = BluetoothKeyboardBackend::pair(d);
        let err = b
            .perform(&Action::ClearAppData("com.brave.browser".into()))
            .unwrap_err();
        assert!(matches!(err, AutomationError::Unsupported { .. }));
    }

    #[test]
    fn script_actions_consume_device_time() {
        let d = device();
        let mut b = AdbBackend::connect(d.clone(), TransportKind::WiFi, key()).unwrap();
        let t0 = d.with_sim(|s| s.now());
        b.run_script(&Script::browser_workload(
            "com.brave.browser",
            &["https://a.com", "https://b.com"],
            4,
        ))
        .unwrap();
        let elapsed = d.with_sim(|s| s.now()) - t0;
        // 2 pages × (6 s dwell + 4 scrolls) + launch/setup ⇒ well over 15 s.
        assert!(elapsed > SimDuration::from_secs(15), "elapsed {elapsed}");
    }
}
