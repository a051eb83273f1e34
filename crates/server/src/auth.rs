//! Accounts, roles and the authorisation matrix (§3.1).
//!
//! "Experimenters need to authenticate and be authorized to access the web
//! console … only experimenters that have been granted access can create,
//! edit or run jobs and every pipeline change has to be approved by an
//! administrator. This is done via a role-based authorization matrix."

use std::collections::BTreeMap;

/// Platform roles.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// Full control, approves pipeline changes, manages nodes.
    Admin,
    /// Creates/edits/runs jobs on granted devices.
    Experimenter,
    /// Interacts with a shared mirror session only.
    Tester,
}

/// Actions the matrix gates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Permission {
    /// Create a new job.
    CreateJob,
    /// Edit an existing pipeline.
    EditJob,
    /// Enqueue a job run.
    RunJob,
    /// Approve someone else's pipeline change.
    ApprovePipelineChange,
    /// Enrol / remove vantage points.
    ManageNodes,
    /// Read job results and artifacts.
    ViewResults,
    /// Join a mirror session as a viewer.
    UseMirror,
}

/// The role-based authorization matrix.
pub fn allows(role: Role, permission: Permission) -> bool {
    use Permission::*;
    match role {
        Role::Admin => true,
        Role::Experimenter => matches!(
            permission,
            CreateJob | EditJob | RunJob | ViewResults | UseMirror
        ),
        Role::Tester => matches!(permission, UseMirror),
    }
}

/// Authentication/authorisation failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuthError {
    /// Unknown user or bad password.
    BadCredentials,
    /// The console is HTTPS-only; plain HTTP is refused.
    HttpsRequired,
    /// Authenticated but not authorised.
    Forbidden {
        /// Who asked.
        user: String,
        /// For what.
        permission: Permission,
    },
    /// Session token invalid or expired.
    BadSession,
    /// User name already taken.
    DuplicateUser(String),
}

impl std::fmt::Display for AuthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuthError::BadCredentials => write!(f, "bad credentials"),
            AuthError::HttpsRequired => write!(f, "console is HTTPS-only"),
            AuthError::Forbidden { user, permission } => {
                write!(f, "{user} lacks {permission:?}")
            }
            AuthError::BadSession => write!(f, "invalid session"),
            AuthError::DuplicateUser(u) => write!(f, "user {u} already exists"),
        }
    }
}

impl std::error::Error for AuthError {}

#[derive(Clone, Debug)]
struct Account {
    role: Role,
    password_hash: u64,
}

/// An issued console session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Session {
    /// Opaque token.
    pub token: u64,
    /// Logged-in user.
    pub user: String,
    /// Role at login time.
    pub role: Role,
}

/// The user directory + session store of the access server.
pub struct AuthService {
    accounts: BTreeMap<String, Account>,
    sessions: BTreeMap<u64, Session>,
    next_token: u64,
}

pub(crate) fn hash_password(pw: &str) -> u64 {
    pw.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

impl AuthService {
    /// An empty directory with one bootstrap admin.
    pub fn new(admin_user: &str, admin_password: &str) -> Self {
        let mut accounts = BTreeMap::new();
        accounts.insert(
            admin_user.to_string(),
            Account {
                role: Role::Admin,
                password_hash: hash_password(admin_password),
            },
        );
        AuthService {
            accounts,
            sessions: BTreeMap::new(),
            next_token: 1,
        }
    }

    /// An empty directory with no accounts at all. Only recovery uses
    /// this: every account — the bootstrap admin included — is replayed
    /// from `UserAdded` records in the write-ahead log.
    pub fn empty() -> Self {
        AuthService {
            accounts: BTreeMap::new(),
            sessions: BTreeMap::new(),
            next_token: 1,
        }
    }

    /// Register a user from an already-hashed password (the WAL stores
    /// password hashes, never cleartext).
    pub fn add_user_hashed(
        &mut self,
        name: &str,
        password_hash: u64,
        role: Role,
    ) -> Result<(), AuthError> {
        if self.accounts.contains_key(name) {
            return Err(AuthError::DuplicateUser(name.to_string()));
        }
        self.accounts.insert(
            name.to_string(),
            Account {
                role,
                password_hash,
            },
        );
        Ok(())
    }

    /// Iterate `(name, password_hash, role)` over every account, in name
    /// order — the WAL snapshots this when durability is attached.
    pub fn accounts(&self) -> impl Iterator<Item = (&str, u64, Role)> {
        self.accounts
            .iter()
            .map(|(name, a)| (name.as_str(), a.password_hash, a.role))
    }

    /// Register a user (admin action, checked by the caller).
    pub fn add_user(&mut self, name: &str, password: &str, role: Role) -> Result<(), AuthError> {
        self.add_user_hashed(name, hash_password(password), role)
    }

    /// Log in over the console. `https` models the transport the request
    /// arrived on — HTTP is refused outright (§3.1).
    pub fn login(&mut self, name: &str, password: &str, https: bool) -> Result<Session, AuthError> {
        if !https {
            return Err(AuthError::HttpsRequired);
        }
        let account = self.accounts.get(name).ok_or(AuthError::BadCredentials)?;
        if account.password_hash != hash_password(password) {
            return Err(AuthError::BadCredentials);
        }
        let session = Session {
            token: self.next_token,
            user: name.to_string(),
            role: account.role,
        };
        self.next_token += 1;
        self.sessions.insert(session.token, session.clone());
        Ok(session)
    }

    /// Resolve a session token.
    pub fn session(&self, token: u64) -> Result<&Session, AuthError> {
        self.sessions.get(&token).ok_or(AuthError::BadSession)
    }

    /// Check `token` holds `permission`.
    pub fn authorize(&self, token: u64, permission: Permission) -> Result<&Session, AuthError> {
        let session = self.session(token)?;
        if allows(session.role, permission) {
            Ok(session)
        } else {
            Err(AuthError::Forbidden {
                user: session.user.clone(),
                permission,
            })
        }
    }

    /// Invalidate a session.
    pub fn logout(&mut self, token: u64) {
        self.sessions.remove(&token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> AuthService {
        let mut s = AuthService::new("admin", "root-pw");
        s.add_user("alice", "pw-a", Role::Experimenter).unwrap();
        s.add_user("turker-1", "pw-t", Role::Tester).unwrap();
        s
    }

    #[test]
    fn matrix_shape() {
        assert!(allows(Role::Admin, Permission::ApprovePipelineChange));
        assert!(allows(Role::Admin, Permission::ManageNodes));
        assert!(allows(Role::Experimenter, Permission::CreateJob));
        assert!(!allows(
            Role::Experimenter,
            Permission::ApprovePipelineChange
        ));
        assert!(!allows(Role::Experimenter, Permission::ManageNodes));
        assert!(allows(Role::Tester, Permission::UseMirror));
        assert!(!allows(Role::Tester, Permission::RunJob));
        assert!(!allows(Role::Tester, Permission::ViewResults));
    }

    #[test]
    fn https_only() {
        let mut s = service();
        assert_eq!(
            s.login("alice", "pw-a", false).unwrap_err(),
            AuthError::HttpsRequired
        );
        assert!(s.login("alice", "pw-a", true).is_ok());
    }

    #[test]
    fn bad_credentials() {
        let mut s = service();
        assert_eq!(
            s.login("alice", "wrong", true).unwrap_err(),
            AuthError::BadCredentials
        );
        assert_eq!(
            s.login("nobody", "pw", true).unwrap_err(),
            AuthError::BadCredentials
        );
    }

    #[test]
    fn authorize_through_session() {
        let mut s = service();
        let session = s.login("alice", "pw-a", true).unwrap();
        assert!(s.authorize(session.token, Permission::RunJob).is_ok());
        assert!(matches!(
            s.authorize(session.token, Permission::ManageNodes),
            Err(AuthError::Forbidden { .. })
        ));
        s.logout(session.token);
        assert_eq!(
            s.authorize(session.token, Permission::RunJob).unwrap_err(),
            AuthError::BadSession
        );
    }

    #[test]
    fn duplicate_users_rejected() {
        let mut s = service();
        assert_eq!(
            s.add_user("alice", "x", Role::Tester).unwrap_err(),
            AuthError::DuplicateUser("alice".into())
        );
    }

    #[test]
    fn tester_session_can_only_mirror() {
        let mut s = service();
        let t = s.login("turker-1", "pw-t", true).unwrap();
        assert!(s.authorize(t.token, Permission::UseMirror).is_ok());
        for p in [
            Permission::CreateJob,
            Permission::EditJob,
            Permission::RunJob,
            Permission::ViewResults,
        ] {
            assert!(s.authorize(t.token, p).is_err(), "{p:?}");
        }
    }
}
