// Package foreman keeps the names the repository benchmark (perfbench)
// builds its federated topology from. The foreman tier itself lives in
// internal/vine as vine.Foreman; the benchmark tree must build unchanged
// against every revision it compares, so these aliases stay for it. New
// code uses the vine names directly.
package foreman

import "hepvine/internal/vine"

type (
	LocalConfig     = vine.LocalConfig
	LocalFederation = vine.LocalFederation
)

// NewLocalFederation is vine.NewLocalFederation.
func NewLocalFederation(cfg LocalConfig) (*LocalFederation, error) {
	return vine.NewLocalFederation(cfg)
}
