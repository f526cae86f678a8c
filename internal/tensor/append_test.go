package tensor

import "testing"

func TestNewWithCapGrowsInPlace(t *testing.T) {
	m := NewWithCap(0, 4, 8)
	if m.Rows != 0 || m.Cols != 4 || cap(m.Data) != 32 {
		t.Fatalf("unexpected shape/cap: %dx%d cap %d", m.Rows, m.Cols, cap(m.Data))
	}
	base := &m.Data[:1][0]
	for r := 0; r < 8; r++ {
		m = FromSlice(r+1, 4, m.Data[:(r+1)*4])
		for c := range m.Row(r) {
			m.Set(r, c, float32(r*4+c))
		}
		if &m.Data[0] != base {
			t.Fatalf("growth reallocated backing array at row %d", r)
		}
	}
	for r := 0; r < 8; r++ {
		for c := 0; c < 4; c++ {
			if m.At(r, c) != float32(r*4+c) {
				t.Fatalf("element (%d,%d) = %v", r, c, m.At(r, c))
			}
		}
	}
}

func TestNewWithCapValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capRows < rows accepted")
		}
	}()
	NewWithCap(4, 2, 3)
}
