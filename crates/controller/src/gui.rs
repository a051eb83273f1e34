//! The browser GUI of Fig. 1(c): an interactive area mirroring the device
//! (every mouse action is executed on the physical device) and a toolbar
//! exposing a convenient subset of the Table 1 API via AJAX calls to the
//! controller backend.
//!
//! The experimenter controls whether the toolbar is present on the page
//! shared with a test participant (§3.2) — testers recruited from
//! Mechanical Turk should interact with the app, not the power meter.

use crate::vantage::{ControllerError, VantagePoint};

/// Toolbar buttons (the API subset of Table 1 the GUI exposes).
#[derive(Clone, Debug, PartialEq)]
pub enum ToolbarAction {
    /// List test devices.
    ListDevices,
    /// Toggle mirroring of the bound device.
    DeviceMirroring,
    /// Toggle the Monsoon's mains power.
    PowerMonitor,
    /// Program the output voltage.
    SetVoltage(f64),
    /// Begin a measurement.
    StartMonitor,
    /// End the measurement (decimated rate keeps the response small).
    StopMonitor,
    /// Toggle battery bypass.
    BattSwitch,
    /// Run an ADB shell command.
    ExecuteAdb(String),
}

/// Errors surfaced to the web client.
#[derive(Debug)]
pub enum GuiError {
    /// The toolbar is hidden for this participant.
    ToolbarHidden,
    /// The backend call failed.
    Backend(ControllerError),
}

impl From<ControllerError> for GuiError {
    fn from(e: ControllerError) -> Self {
        GuiError::Backend(e)
    }
}

impl std::fmt::Display for GuiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuiError::ToolbarHidden => write!(f, "toolbar not available in this session"),
            GuiError::Backend(e) => write!(f, "backend: {e}"),
        }
    }
}

impl std::error::Error for GuiError {}

/// One GUI page bound to a device, as served to an experimenter or tester.
pub struct GuiSession {
    device_id: String,
    toolbar_visible: bool,
    clicks: u64,
}

impl GuiSession {
    /// A page for `device_id`; `toolbar_visible` is the experimenter's
    /// choice when sharing with a participant.
    pub fn new(device_id: &str, toolbar_visible: bool) -> Self {
        GuiSession {
            device_id: device_id.to_string(),
            toolbar_visible,
            clicks: 0,
        }
    }

    /// Whether the toolbar renders.
    pub fn toolbar_visible(&self) -> bool {
        self.toolbar_visible
    }

    /// Experimenter toggles the toolbar before sharing the page.
    pub fn set_toolbar(&mut self, visible: bool) {
        self.toolbar_visible = visible;
    }

    /// Interactions performed in the interactive area.
    pub fn clicks(&self) -> u64 {
        self.clicks
    }

    /// A mouse click inside the interactive area: executed on the device
    /// as a tap at the same coordinates.
    pub fn click_screen(&mut self, vp: &mut VantagePoint, x: u32, y: u32) -> Result<(), GuiError> {
        vp.execute_adb(&self.device_id, &format!("input tap {x} {y}"))?;
        self.clicks += 1;
        Ok(())
    }

    /// A toolbar button press, dispatched over the backend's REST API.
    /// Returns the JSON-ish response body shown in the GUI.
    pub fn click_toolbar(
        &mut self,
        vp: &mut VantagePoint,
        action: ToolbarAction,
    ) -> Result<String, GuiError> {
        if !self.toolbar_visible {
            return Err(GuiError::ToolbarHidden);
        }
        let body = match action {
            ToolbarAction::ListDevices => format!("{:?}", vp.list_devices()),
            ToolbarAction::DeviceMirroring => {
                format!("mirroring={}", vp.device_mirroring(&self.device_id)?)
            }
            ToolbarAction::PowerMonitor => format!("socket={:?}", vp.power_monitor()?),
            ToolbarAction::SetVoltage(v) => {
                vp.set_voltage(v)?;
                format!("voltage={v}")
            }
            ToolbarAction::StartMonitor => {
                vp.start_monitor(&self.device_id)?;
                "monitor=started".to_string()
            }
            ToolbarAction::StopMonitor => {
                let report = vp.stop_monitor_at_rate(200.0)?;
                format!("discharge_mah={:.3}", report.mah())
            }
            ToolbarAction::BattSwitch => {
                format!("route={:?}", vp.batt_switch(&self.device_id)?)
            }
            ToolbarAction::ExecuteAdb(cmd) => vp.execute_adb(&self.device_id, &cmd)?,
        };
        Ok(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vantage::VantageConfig;
    use batterylab_device::boot_j7_duo;
    use batterylab_sim::SimRng;

    fn setup() -> (VantagePoint, GuiSession) {
        let rng = SimRng::new(21);
        let mut vp = VantagePoint::new(VantageConfig::imperial_college(), rng.derive("vp"));
        vp.add_device(boot_j7_duo(&rng, "gui-dev"));
        (vp, GuiSession::new("gui-dev", true))
    }

    #[test]
    fn toolbar_drives_the_api() {
        let (mut vp, mut gui) = setup();
        assert!(gui
            .click_toolbar(&mut vp, ToolbarAction::ListDevices)
            .unwrap()
            .contains("gui-dev"));
        gui.click_toolbar(&mut vp, ToolbarAction::PowerMonitor)
            .unwrap();
        gui.click_toolbar(&mut vp, ToolbarAction::SetVoltage(4.0))
            .unwrap();
        gui.click_toolbar(&mut vp, ToolbarAction::BattSwitch)
            .unwrap();
        gui.click_toolbar(&mut vp, ToolbarAction::StartMonitor)
            .unwrap();
        vp.device_handle("gui-dev").unwrap().with_sim(|s| {
            s.set_screen(true);
            s.play_video(batterylab_sim::SimDuration::from_secs(5));
        });
        let out = gui
            .click_toolbar(&mut vp, ToolbarAction::StopMonitor)
            .unwrap();
        assert!(out.starts_with("discharge_mah="));
    }

    #[test]
    fn hidden_toolbar_blocks_testers() {
        let (mut vp, mut gui) = setup();
        gui.set_toolbar(false);
        assert!(matches!(
            gui.click_toolbar(&mut vp, ToolbarAction::PowerMonitor),
            Err(GuiError::ToolbarHidden)
        ));
        // The interactive area still works — testers interact with the
        // device, not the instruments.
        gui.click_screen(&mut vp, 540, 900).unwrap();
        assert_eq!(gui.clicks(), 1);
    }

    #[test]
    fn screen_clicks_reach_the_device() {
        let (mut vp, mut gui) = setup();
        let device = vp.device_handle("gui-dev").unwrap();
        let t0 = device.with_sim(|s| s.now());
        gui.click_screen(&mut vp, 100, 200).unwrap();
        assert!(
            device.with_sim(|s| s.now()) > t0,
            "tap consumed device time"
        );
    }
}
