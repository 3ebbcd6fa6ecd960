// Package txn is a fixture mirror of the transaction manager's row-claim
// API, which lockorder models as one synthetic lock class.
package txn

// Manager hands out transactions.
type Manager struct{}

// Begin starts a transaction.
func (m *Manager) Begin() *Txn { return &Txn{} }

// Txn holds the rows it claims until Commit or Rollback.
type Txn struct{}

// Insert waits out any transaction holding the new row's unique keys.
func (t *Txn) Insert(table string) error { return nil }

// Update claims the target row by stamping it.
func (t *Txn) Update(table string) error { return nil }

// Delete claims the target row by stamping it.
func (t *Txn) Delete(table string) error { return nil }

// Commit releases every claim.
func (t *Txn) Commit() error { return nil }

// Rollback releases every claim.
func (t *Txn) Rollback() error { return nil }
