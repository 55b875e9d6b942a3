package gfmat

import (
	"math/rand"
	"testing"
	"testing/quick"

	"p2pcollect/internal/gf256"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = byte(rng.Intn(256))
		}
	}
	return m
}

func TestNewDimensions(t *testing.T) {
	m := New(3, 5)
	if m.Rows() != 3 || m.Cols() != 5 {
		t.Fatalf("New(3,5) dims = %dx%d", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("new matrix not zero at (%d,%d)", i, j)
			}
		}
	}
}

func TestSetAtRow(t *testing.T) {
	m := New(2, 2)
	m.Set(1, 0, 7)
	if m.At(1, 0) != 7 {
		t.Errorf("At(1,0) = %d, want 7", m.At(1, 0))
	}
	row := m.Row(1)
	row[1] = 9
	if m.At(1, 1) != 9 {
		t.Errorf("Row slice does not alias storage")
	}
}

func TestIdentityMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 4, 4)
	got := Identity(4).Mul(m)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if got.At(i, j) != m.At(i, j) {
				t.Fatalf("I·M != M at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 3, 4)
	b := randomMatrix(rng, 4, 5)
	c := randomMatrix(rng, 5, 2)
	left := a.Mul(b).Mul(c)
	right := a.Mul(b.Mul(c))
	for i := 0; i < left.Rows(); i++ {
		for j := 0; j < left.Cols(); j++ {
			if left.At(i, j) != right.At(i, j) {
				t.Fatalf("(AB)C != A(BC) at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 5, 7)
	v := make([]byte, 7)
	rng.Read(v)
	col := New(7, 1)
	for i := range v {
		col.Set(i, 0, v[i])
	}
	want := a.Mul(col)
	got := a.MulVec(v)
	for i := range got {
		if got[i] != want.At(i, 0) {
			t.Fatalf("MulVec mismatch at %d", i)
		}
	}
}

func TestRank(t *testing.T) {
	tests := []struct {
		name string
		rows [][]byte
		want int
	}{
		{"empty", nil, 0},
		{"zero", [][]byte{{0, 0}, {0, 0}}, 0},
		{"identity", [][]byte{{1, 0}, {0, 1}}, 2},
		{"dependent", [][]byte{{1, 2}, {2, 4}}, 1},
		{"three rows rank two", [][]byte{{1, 0, 1}, {0, 1, 1}, {1, 1, 0}}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := FromRows(tt.rows).Rank(); got != tt.want {
				t.Errorf("Rank = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		m := randomMatrix(rng, n, n)
		inv, err := m.Inverse()
		if err != nil {
			continue // singular draw, skip
		}
		prod := m.Mul(inv)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := byte(0)
				if i == j {
					want = 1
				}
				if prod.At(i, j) != want {
					t.Fatalf("M·M⁻¹ != I at (%d,%d), n=%d", i, j, n)
				}
			}
		}
	}
}

func TestSolveRecoversKnownSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(10)
		a := randomMatrix(rng, n, n)
		if a.Rank() < n {
			continue
		}
		x := randomMatrix(rng, n, 3)
		rhs := a.Mul(x)
		got, err := a.Solve(rhs)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < 3; j++ {
				if got.At(i, j) != x.At(i, j) {
					t.Fatalf("Solve mismatch at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]byte{{1, 2}, {2, 4}})
	if _, err := a.Solve(New(2, 1)); err != ErrSingular {
		t.Errorf("Solve singular err = %v, want ErrSingular", err)
	}
}

func TestSolveOverdetermined(t *testing.T) {
	// 3 equations, 2 unknowns, consistent.
	a := FromRows([][]byte{{1, 0}, {0, 1}, {1, 1}})
	x := FromRows([][]byte{{5}, {7}})
	rhs := a.Mul(x)
	got, err := a.Solve(rhs)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if got.At(0, 0) != 5 || got.At(1, 0) != 7 {
		t.Errorf("Solve overdetermined = (%d,%d), want (5,7)", got.At(0, 0), got.At(1, 0))
	}
}

func TestEchelonInsertRank(t *testing.T) {
	e := NewEchelon(3)
	if !e.Insert([]byte{1, 1, 0}) {
		t.Fatal("first insert not innovative")
	}
	if e.Insert([]byte{2, 2, 0}) {
		t.Fatal("dependent insert reported innovative")
	}
	if !e.Insert([]byte{0, 0, 5}) {
		t.Fatal("independent insert rejected")
	}
	if e.Rank() != 2 {
		t.Fatalf("Rank = %d, want 2", e.Rank())
	}
	if e.Full() {
		t.Fatal("Full() true at rank 2 of 3")
	}
	if !e.Insert([]byte{1, 2, 3}) || !e.Full() {
		t.Fatal("could not complete the basis")
	}
	if e.Insert([]byte{9, 9, 9}) {
		t.Fatal("insert into full basis reported innovative")
	}
}

func TestEchelonMatchesMatrixRank(t *testing.T) {
	f := func(seed int64, rows8, cols8 uint8) bool {
		rows := int(rows8%12) + 1
		cols := int(cols8%12) + 1
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(rng, rows, cols)
		e := NewEchelon(cols)
		got := 0
		for i := 0; i < rows; i++ {
			if e.Insert(m.Row(i)) {
				got++
			}
		}
		return got == m.Rank() && got == e.Rank()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEchelonContains(t *testing.T) {
	e := NewEchelon(3)
	e.Insert([]byte{1, 2, 3})
	e.Insert([]byte{0, 1, 1})
	// Any combination of the two rows must be contained.
	comb := make([]byte, 3)
	copy(comb, []byte{1, 2, 3})
	gf256.AddMulSlice(comb, 7, []byte{0, 1, 1})
	if !e.Contains(comb) {
		t.Error("Contains(combination) = false")
	}
	if e.Contains([]byte{0, 0, 1}) {
		t.Error("Contains(independent) = true")
	}
	if e.Rank() != 2 {
		t.Errorf("Contains modified the basis: rank %d", e.Rank())
	}
}

func TestEchelonInsertDoesNotModifyInput(t *testing.T) {
	e := NewEchelon(2)
	v := []byte{3, 4}
	e.Insert(v)
	if v[0] != 3 || v[1] != 4 {
		t.Error("Insert modified caller's vector")
	}
}

func TestEchelonReset(t *testing.T) {
	e := NewEchelon(2)
	e.Insert([]byte{1, 0})
	e.Reset()
	if e.Rank() != 0 {
		t.Errorf("Rank after Reset = %d", e.Rank())
	}
	if !e.Insert([]byte{1, 0}) {
		t.Error("insert after Reset rejected")
	}
}

// TestEchelonResetReusesRows pins that a basis rebuilt after Reset runs on
// the retired rows: reinserting a full basis allocates nothing, and the
// reused rows leave no trace of their old contents in later verdicts.
func TestEchelonResetReusesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomMatrix(rng, 8, 8)
	e := NewEchelon(8)
	for i := 0; i < m.Rows(); i++ {
		e.Insert(m.Row(i))
	}
	allocs := testing.AllocsPerRun(50, func() {
		e.Reset()
		for i := 0; i < m.Rows(); i++ {
			e.Insert(m.Row(i))
		}
	})
	if allocs != 0 {
		t.Fatalf("rebuild after Reset allocated %v times per run, want 0", allocs)
	}
	e.Reset()
	e.Insert([]byte{0, 1, 0, 0, 0, 0, 0, 0})
	if e.Rank() != 1 || e.Contains([]byte{1, 0, 0, 0, 0, 0, 0, 0}) || !e.Contains([]byte{0, 7, 0, 0, 0, 0, 0, 0}) {
		t.Fatalf("basis after Reset is wrong: rank %d", e.Rank())
	}
}

func TestEchelonWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Insert with wrong width did not panic")
		}
	}()
	NewEchelon(3).Insert([]byte{1})
}

func BenchmarkEchelonInsert32(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	vecs := make([][]byte, 64)
	for i := range vecs {
		vecs[i] = make([]byte, 32)
		rng.Read(vecs[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEchelon(32)
		for _, v := range vecs {
			e.Insert(v)
		}
	}
}

func BenchmarkSolve64(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	var a *Matrix
	for {
		a = randomMatrix(rng, 64, 64)
		if a.Rank() == 64 {
			break
		}
	}
	rhs := randomMatrix(rng, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Solve(rhs); err != nil {
			b.Fatal(err)
		}
	}
}
