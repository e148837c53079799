//! UART character timing.
//!
//! PROFIBUS transmits asynchronously in NRZ with an 11-bit character frame:
//! 1 start bit, 8 data bits, 1 (even) parity bit, 1 stop bit. Every frame
//! duration is therefore `11 × chars` bit times.

use profirt_base::Time;

/// Bits per transmitted character (start + 8 data + parity + stop).
pub const BITS_PER_CHAR: i64 = 11;

/// Transmission time of `chars` characters, in bit times.
pub fn char_time(chars: usize) -> Time {
    Time::new(BITS_PER_CHAR * chars as i64)
}

/// Character count of each FDL frame format.
pub mod frame_chars {
    /// SD1 fixed-length frame, no data: SD DA SA FC FCS ED.
    pub const SD1: usize = 6;
    /// SD3 fixed-length frame with 8 data units: SD DA SA FC DU×8 FCS ED.
    pub const SD3: usize = 14;
    /// SD4 token frame: SD DA SA.
    pub const TOKEN: usize = 3;
    /// Single-character acknowledge (SC).
    pub const SHORT_ACK: usize = 1;
    /// SD2 variable-length frame with `data_len` data units:
    /// SD LE LEr SD DA SA FC DU×n FCS ED.
    pub const fn sd2(data_len: usize) -> usize {
        9 + data_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;

    #[test]
    fn char_times() {
        assert_eq!(char_time(1), t(11));
        assert_eq!(char_time(6), t(66));
        assert_eq!(char_time(0), t(0));
    }

    #[test]
    fn frame_char_counts() {
        assert_eq!(frame_chars::SD1, 6);
        assert_eq!(frame_chars::SD3, 14);
        assert_eq!(frame_chars::TOKEN, 3);
        assert_eq!(frame_chars::SHORT_ACK, 1);
        assert_eq!(frame_chars::sd2(0), 9);
        assert_eq!(frame_chars::sd2(32), 41);
    }

    #[test]
    fn token_frame_is_33_bits() {
        // The token is 3 chars = 33 bits — same as TSYN, a standard fact.
        assert_eq!(char_time(frame_chars::TOKEN), t(33));
    }
}
