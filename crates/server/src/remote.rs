//! The remote command surface: what the access server actually sends
//! down the SSH channel (§3.1 "the access server communicates with the
//! vantage points via SSH").
//!
//! Controllers expose the Table 1 API as a line protocol — `blab
//! list_devices`, `blab batt_switch <serial>`, … — and the server drives
//! it through an authenticated [`SshSession`](crate::ssh::SshSession).
//! This is the glue that makes the SSH substrate and the controller API
//! one pipeline instead of two libraries.

use batterylab_controller::VantagePoint;

use crate::ssh::CommandHandler;

/// Wrap a vantage point as an SSH [`CommandHandler`] speaking the `blab`
/// line protocol.
pub struct ControllerShell {
    vp: VantagePoint,
}

impl ControllerShell {
    /// Wrap `vp`.
    pub fn new(vp: VantagePoint) -> Self {
        ControllerShell { vp }
    }

    /// Take the vantage point back (e.g. at node decommission).
    pub fn into_inner(self) -> VantagePoint {
        self.vp
    }
}

impl CommandHandler for ControllerShell {
    fn handle(&mut self, cmd: &str) -> Result<String, String> {
        let args: Vec<&str> = cmd.split_whitespace().collect();
        let err = |e: batterylab_controller::ControllerError| e.to_string();
        match args.as_slice() {
            ["blab", "list_devices"] => Ok(self.vp.list_devices().join("\n")),
            ["blab", "power_monitor"] => Ok(format!("{:?}", self.vp.power_monitor().map_err(err)?)),
            ["blab", "set_voltage", v] => {
                let volts: f64 = v.parse().map_err(|_| "bad voltage".to_string())?;
                self.vp.set_voltage(volts).map_err(err)?;
                Ok(format!("voltage={volts}"))
            }
            ["blab", "batt_switch", serial] => {
                Ok(format!("{:?}", self.vp.batt_switch(serial).map_err(err)?))
            }
            ["blab", "device_mirroring", serial] => Ok(format!(
                "mirroring={}",
                self.vp.device_mirroring(serial).map_err(err)?
            )),
            ["blab", "start_monitor", serial] => {
                self.vp.start_monitor(serial).map_err(err)?;
                Ok("started".to_string())
            }
            ["blab", "stop_monitor"] => {
                let report = self.vp.stop_monitor_at_rate(200.0).map_err(err)?;
                Ok(format!(
                    "mah={:.4} mean_ma={:.1} samples={}",
                    report.mah(),
                    report.mean_ma(),
                    report.samples.len()
                ))
            }
            ["blab", "execute_adb", serial, rest @ ..] => {
                self.vp.execute_adb(serial, &rest.join(" ")).map_err(err)
            }
            ["uptime"] => Ok("up (virtual), load average: see fig5".to_string()),
            _ => Err(format!("blab: unknown command {cmd:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssh::{SshClient, SshServer};
    use batterylab_controller::VantageConfig;
    use batterylab_device::boot_j7_duo;
    use batterylab_sim::{SimDuration, SimRng};

    fn shell() -> ControllerShell {
        let rng = SimRng::new(81);
        let mut vp = VantagePoint::new(VantageConfig::imperial_college(), rng.derive("vp"));
        vp.add_device(boot_j7_duo(&rng, "ssh-dev"));
        ControllerShell::new(vp)
    }

    #[test]
    fn full_measurement_over_ssh() {
        let mut sshd = SshServer::new("hk:node1", vec!["fp:access-server".to_string()]);
        let client = SshClient::new("fp:access-server");
        let mut session = client.connect("node1", &mut sshd).unwrap();
        let mut shell = shell();

        assert_eq!(
            session.exec(&mut shell, "blab list_devices").unwrap(),
            "ssh-dev"
        );
        session.exec(&mut shell, "blab power_monitor").unwrap();
        session.exec(&mut shell, "blab set_voltage 4.0").unwrap();
        assert_eq!(
            session
                .exec(&mut shell, "blab batt_switch ssh-dev")
                .unwrap(),
            "Bypass"
        );
        session
            .exec(&mut shell, "blab start_monitor ssh-dev")
            .unwrap();
        // Drive the workload through execute_adb over the same channel.
        session
            .exec(&mut shell, "blab execute_adb ssh-dev sleep 5")
            .unwrap();
        let report = session.exec(&mut shell, "blab stop_monitor").unwrap();
        assert!(report.starts_with("mah="), "{report}");
    }

    #[test]
    fn unknown_commands_are_remote_errors() {
        let mut sshd = SshServer::new("hk", vec!["fp:s".to_string()]);
        let client = SshClient::new("fp:s");
        let mut session = client.connect("h", &mut sshd).unwrap();
        let mut shell = shell();
        let err = session.exec(&mut shell, "rm -rf /").unwrap_err();
        assert!(matches!(err, crate::ssh::SshError::ExitNonZero { .. }));
    }

    #[test]
    fn controller_errors_propagate_as_exit_codes() {
        let mut sshd = SshServer::new("hk", vec!["fp:s".to_string()]);
        let client = SshClient::new("fp:s");
        let mut session = client.connect("h", &mut sshd).unwrap();
        let mut shell = shell();
        // stop without start.
        let err = session.exec(&mut shell, "blab stop_monitor").unwrap_err();
        let crate::ssh::SshError::ExitNonZero { stderr, .. } = err else {
            panic!("expected exit error");
        };
        assert!(stderr.contains("no measurement"), "{stderr}");
    }

    #[test]
    fn mirroring_toggle_over_ssh() {
        let mut sshd = SshServer::new("hk", vec!["fp:s".to_string()]);
        let client = SshClient::new("fp:s");
        let mut session = client.connect("h", &mut sshd).unwrap();
        let mut shell = shell();
        assert_eq!(
            session
                .exec(&mut shell, "blab device_mirroring ssh-dev")
                .unwrap(),
            "mirroring=true"
        );
        assert_eq!(
            session
                .exec(&mut shell, "blab device_mirroring ssh-dev")
                .unwrap(),
            "mirroring=false"
        );
        let _ = SimDuration::ZERO;
    }
}
