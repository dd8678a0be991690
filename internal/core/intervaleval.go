package core

// Interval encoding is the third encoding scheme, included as an extension
// beyond the paper's two (the same group's follow-up work): component i
// stores m_i = ceil(b_i/2) bitmaps, where window bitmap I_i^j marks
// records whose digit lies in [j, j+m_i-1]. Any single-digit comparison is
// then answerable from at most two stored bitmaps:
//
//	digit = d:   I^d AND NOT I^{d+1}              (d < m-1)
//	             I^{m-1} AND I^0                  (d = m-1)
//	             I^{d-m+1} AND NOT I^{d-m}        (m <= d <= 2m-2)
//	             NOT (I^0 OR I^{m-1})             (d = 2m-1, even b only)
//	digit <= w:  I^0 AND NOT I^{w+1}              (w < m-1)
//	             I^0                              (w = m-1)
//	             I^0 OR I^{w-m+1}                 (m <= w <= 2m-2)
//
// so interval encoding roughly halves the space of range encoding at up to
// twice the scans — a new family of points in the space-time tradeoff.

// ivWindows returns m_i, the number of stored window bitmaps of component
// i under interval encoding.
func ivWindows(b uint64) int { return int((b + 1) / 2) }
