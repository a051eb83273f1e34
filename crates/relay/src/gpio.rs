//! General-Purpose I/O bank of the controller.
//!
//! The Raspberry Pi 3B+ exposes a 40-pin header; BatteryLab drives the
//! relay board from a handful of output pins. This is a faithful little
//! model of that: pins must be exported and configured before use, and
//! reads/writes against a mis-configured pin are errors, not silent no-ops
//! — exactly the failure a controller deployment script must surface.

/// Number of usable GPIO lines on the Pi 3B+ header.
pub const GPIO_LINES: usize = 28;

/// Pin direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PinMode {
    /// High-impedance input.
    Input,
    /// Push-pull output.
    Output,
}

/// Logic level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// 0 V.
    Low,
    /// 3.3 V.
    High,
}

impl Level {
    /// Invert.
    pub fn toggled(self) -> Level {
        match self {
            Level::Low => Level::High,
            Level::High => Level::Low,
        }
    }
}

/// GPIO errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GpioError {
    /// Pin index ≥ [`GPIO_LINES`].
    NoSuchPin(usize),
    /// Pin has not been configured with [`GpioBank::configure`].
    Unconfigured(usize),
    /// Operation requires the other direction.
    WrongMode {
        /// Offending pin.
        pin: usize,
        /// Direction the pin is actually in.
        actual: PinMode,
    },
}

impl std::fmt::Display for GpioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpioError::NoSuchPin(p) => write!(f, "no such GPIO pin {p}"),
            GpioError::Unconfigured(p) => write!(f, "GPIO pin {p} not configured"),
            GpioError::WrongMode { pin, actual } => {
                write!(f, "GPIO pin {pin} is configured as {actual:?}")
            }
        }
    }
}

impl std::error::Error for GpioError {}

#[derive(Clone, Copy, Debug)]
struct Pin {
    mode: Option<PinMode>,
    level: Level,
}

/// The controller's GPIO bank.
#[derive(Debug)]
pub struct GpioBank {
    pins: [Pin; GPIO_LINES],
    writes: u64,
}

impl GpioBank {
    /// A bank with all pins unconfigured and low.
    pub fn new() -> Self {
        GpioBank {
            pins: [Pin {
                mode: None,
                level: Level::Low,
            }; GPIO_LINES],
            writes: 0,
        }
    }

    fn check(&self, pin: usize) -> Result<(), GpioError> {
        if pin >= GPIO_LINES {
            return Err(GpioError::NoSuchPin(pin));
        }
        Ok(())
    }

    /// Configure `pin` as `mode`. Reconfiguring resets the level to low.
    pub fn configure(&mut self, pin: usize, mode: PinMode) -> Result<(), GpioError> {
        self.check(pin)?;
        self.pins[pin] = Pin {
            mode: Some(mode),
            level: Level::Low,
        };
        Ok(())
    }

    /// Drive an output pin.
    pub fn write(&mut self, pin: usize, level: Level) -> Result<(), GpioError> {
        self.check(pin)?;
        match self.pins[pin].mode {
            None => Err(GpioError::Unconfigured(pin)),
            Some(PinMode::Input) => Err(GpioError::WrongMode {
                pin,
                actual: PinMode::Input,
            }),
            Some(PinMode::Output) => {
                self.pins[pin].level = level;
                self.writes += 1;
                Ok(())
            }
        }
    }

    /// Read a pin's level (allowed in either mode: outputs read back their
    /// driven level).
    pub fn read(&self, pin: usize) -> Result<Level, GpioError> {
        self.check(pin)?;
        if self.pins[pin].mode.is_none() {
            return Err(GpioError::Unconfigured(pin));
        }
        Ok(self.pins[pin].level)
    }

    /// Externally set an input pin (simulating a sensor; test hook).
    pub fn set_input_level(&mut self, pin: usize, level: Level) -> Result<(), GpioError> {
        self.check(pin)?;
        match self.pins[pin].mode {
            Some(PinMode::Input) => {
                self.pins[pin].level = level;
                Ok(())
            }
            Some(PinMode::Output) => Err(GpioError::WrongMode {
                pin,
                actual: PinMode::Output,
            }),
            None => Err(GpioError::Unconfigured(pin)),
        }
    }

    /// Total successful writes (diagnostics).
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

impl Default for GpioBank {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configure_then_write_and_read() {
        let mut g = GpioBank::new();
        g.configure(4, PinMode::Output).unwrap();
        g.write(4, Level::High).unwrap();
        assert_eq!(g.read(4).unwrap(), Level::High);
    }

    #[test]
    fn write_to_unconfigured_fails() {
        let mut g = GpioBank::new();
        assert_eq!(g.write(3, Level::High), Err(GpioError::Unconfigured(3)));
    }

    #[test]
    fn write_to_input_fails() {
        let mut g = GpioBank::new();
        g.configure(5, PinMode::Input).unwrap();
        assert_eq!(
            g.write(5, Level::High),
            Err(GpioError::WrongMode {
                pin: 5,
                actual: PinMode::Input
            })
        );
    }

    #[test]
    fn out_of_range_pin() {
        let mut g = GpioBank::new();
        assert_eq!(
            g.configure(99, PinMode::Output),
            Err(GpioError::NoSuchPin(99))
        );
        assert_eq!(g.read(28).unwrap_err(), GpioError::NoSuchPin(28));
    }

    #[test]
    fn input_pins_reflect_external_level() {
        let mut g = GpioBank::new();
        g.configure(7, PinMode::Input).unwrap();
        g.set_input_level(7, Level::High).unwrap();
        assert_eq!(g.read(7).unwrap(), Level::High);
    }

    #[test]
    fn reconfigure_resets_level() {
        let mut g = GpioBank::new();
        g.configure(2, PinMode::Output).unwrap();
        g.write(2, Level::High).unwrap();
        g.configure(2, PinMode::Output).unwrap();
        assert_eq!(g.read(2).unwrap(), Level::Low);
    }

    #[test]
    fn level_toggle() {
        assert_eq!(Level::Low.toggled(), Level::High);
        assert_eq!(Level::High.toggled(), Level::Low);
    }
}
