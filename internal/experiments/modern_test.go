package experiments

import (
	"errors"
	"strings"
	"testing"

	"damq/internal/buffer"
	"damq/internal/cfgerr"
)

// TestModernNamesInvalidVariant: a variant the network rejects fails the
// sweep with an error that names the variant.
func TestModernNamesInvalidVariant(t *testing.T) {
	variants := []ModernVariant{
		{Name: "damq-1988", Kind: buffer.DAMQ},
		{Name: "fifo-pool", Kind: buffer.FIFO, SharedPool: true},
	}
	_, err := Modern(variants, 4, []float64{0.5}, tiny)
	if !errors.Is(err, cfgerr.ErrBadSharing) || !strings.HasPrefix(err.Error(), "fifo-pool: ") {
		t.Fatalf("err = %v, want ErrBadSharing naming fifo-pool", err)
	}
}
